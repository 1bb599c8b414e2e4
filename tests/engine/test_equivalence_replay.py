"""Golden-fixture replay: the staged engine vs the pre-refactor TS.

The fixtures under ``fixtures/`` were generated by running the shared
workload (``tests/engine/workload.py``) through the *pre-refactor*
Trusted Server's monolithic ``_process`` method.  This test replays the same
workload through the staged pipeline and asserts the full decision
sequence, every pinned audit field, and the SP-visible log are
identical — the refactor must preserve the Section 6.1 semantics bit
for bit, under both anonymity-set scopes.

Do NOT regenerate the fixtures against the engine to make a failure go
away; see ``generate_fixtures.py``.
"""

import gzip
import json
from pathlib import Path

import pytest

from repro.engine.context import AnonymitySetScope
from repro.mod.store import TrajectoryStore
from tests.engine import workload

FIXTURE_DIR = Path(__file__).parent / "fixtures"

SCOPES = list(AnonymitySetScope)


def load_fixture(scope: AnonymitySetScope) -> dict:
    # Fixtures are stored gzip-compressed (they are ~1.2 MB of JSON
    # each); the compressed bytes wrap the exact pre-refactor output.
    path = FIXTURE_DIR / f"equivalence_{scope.value}.json.gz"
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("scope", SCOPES, ids=lambda s: s.value)
class TestGoldenReplay:
    def test_engine_matches_pre_refactor_decisions(self, scope):
        fixture = load_fixture(scope)
        record = workload.run_workload(scope)
        assert record["scope"] == fixture["scope"]
        assert len(record["events"]) == len(fixture["events"])
        for index, (got, want) in enumerate(
            zip(record["events"], fixture["events"])
        ):
            assert got == want, f"event #{index} diverged"
        assert record["sp_log"] == fixture["sp_log"]


class TestViewMatchesBruteDuringReplay:
    """Every k-nearest query the replay issues (Algorithm 1 line 5)
    is answered by the store's columnar view; each answer must equal
    the paper's brute-force scan of the same store at that moment,
    and the replay must still match the fixture."""

    @pytest.mark.parametrize("scope", SCOPES, ids=lambda s: s.value)
    def test_every_nearest_users_answer_matches_brute(
        self, scope, monkeypatch
    ):
        view_answer = TrajectoryStore.nearest_users
        checked = []

        def checked_nearest_users(self, target, count, exclude=frozenset()):
            got = view_answer(self, target, count, exclude)
            assert got == self.nearest_users_brute(target, count, exclude)
            checked.append(len(got))
            return got

        monkeypatch.setattr(
            TrajectoryStore, "nearest_users", checked_nearest_users
        )
        fixture = load_fixture(scope)
        record = workload.run_workload(scope)
        assert len(checked) > 100
        assert record["events"] == fixture["events"]
        assert record["sp_log"] == fixture["sp_log"]


class TestFixtureCoverage:
    def test_fixture_exercises_every_decision_branch(self):
        """The workload is only a meaningful equivalence probe if every
        pipeline exit is actually reached."""
        fixture = load_fixture(AnonymitySetScope.PER_LBQID)
        decisions = {event["decision"] for event in fixture["events"]}
        assert decisions == {
            "forwarded",
            "generalized",
            "unlinked",
            "suppressed",
            "at_risk_forwarded",
            "quiet",
        }

    @pytest.mark.parametrize("scope", SCOPES, ids=lambda s: s.value)
    def test_fixture_pins_sp_log_and_rotations(self, scope):
        fixture = load_fixture(scope)
        assert fixture["sp_log"], "no forwarded traffic pinned"
        assert any(
            event["pseudonym_rotated"] for event in fixture["events"]
        ), "no unlinking pinned"
