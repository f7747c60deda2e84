"""One cache-key rule: keys hash exactly the fields that change results.

:class:`~repro.sram.CharacterizationConfig` and
:class:`~repro.service.QuerySpec` hold only result-affecting fields, so
hashing them wholesale is sound; results-invariant execution knobs
live on :class:`~repro.service.ExecutionOptions` and never reach a key.
A :class:`~repro.core.FlowConfig` writes its own Vdds and variation
flag into its cell config, so two flows that compute the same tables
share their keys.
"""

import dataclasses
import pickle

import pytest

from repro.core import FlowConfig, SerFlow
from repro.io import config_hash
from repro.parallel import RetryPolicy
from repro.service import ExecutionOptions, QueryError, QuerySpec, build_flow
from repro.sram import CharacterizationConfig

from .test_service import _tiny_spec

#: Every characterization field, each with a valid non-default value.
CHANGED_CHARACTERIZATION = dict(
    vdd_list=(0.7, 0.9),
    n_charge_points=11,
    charge_min_fc=0.02,
    charge_max_fc=2.0,
    n_samples=100,
    process_variation=False,
    max_pair_points=7,
    max_triple_points=5,
    seed=7,
    t_sim_s=4.0e-11,
    dt_s=2.0e-13,
)


class TestCharacterizationKey:
    def test_fields_are_the_result_affecting_set(self):
        names = {f.name for f in dataclasses.fields(CharacterizationConfig)}
        assert names == set(CHANGED_CHARACTERIZATION)

    @pytest.mark.parametrize("name", sorted(CHANGED_CHARACTERIZATION))
    def test_every_field_changes_the_key(self, name):
        base = CharacterizationConfig()
        changed = dataclasses.replace(
            base, **{name: CHANGED_CHARACTERIZATION[name]}
        )
        assert config_hash(changed) != config_hash(base)


class TestFlowKey:
    @pytest.mark.parametrize(
        "cell_config",
        [
            CharacterizationConfig(vdd_list=(0.7,)),
            CharacterizationConfig(process_variation=False),
        ],
        ids=["vdd_list", "process_variation"],
    )
    def test_cell_config_takes_the_flows_vdds_and_variation(
        self, tmp_path, cell_config
    ):
        """The flow's Vdds and variation flag, not the ones its nested
        cell config names, enter the POF and sweep keys."""
        base = FlowConfig(particles=("alpha",), vdd_list=(0.8, 0.9))

        def keys(config):
            flow = SerFlow(config, cache_dir=str(tmp_path))
            return (
                flow.cache.path_for("pof", *flow._pof_key()),
                flow.cache.path_for(
                    "sweep",
                    flow.config,
                    flow.design.tech,
                    {"particles": ["alpha"], "vdds": [0.8, 0.9]},
                ),
            )

        other = dataclasses.replace(base, characterization=cell_config)
        assert keys(other) == keys(base)


    def test_journal_path_and_key_from_one_hash(self, tmp_path, monkeypatch):
        from repro.core import flow as flow_module

        flow = SerFlow(FlowConfig(particles=("alpha",)), cache_dir=str(tmp_path))
        objects = (flow.config, flow.design.tech, {"stage": "fit"})
        key = config_hash(*objects)
        hashed = []
        monkeypatch.setattr(
            flow_module, "config_hash", lambda *o: hashed.append(o) or key
        )
        journal = flow._journal_for("sweep", None, None, *objects)
        assert hashed == [objects]
        assert journal.key == key
        assert journal.path == tmp_path / f"journal-sweep-{key}.jsonl"


class TestQueryKey:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("cell_early_exit", False),
            ("cell_max_batch", 10),
            ("cell_kernel", "exact"),
            ("cell_kernel", "fused"),
            ("cell_kernel", "tabulated"),
        ],
    )
    def test_removed_cell_knobs_rejected(self, field, value):
        payload = dict(_tiny_spec().to_dict(), **{field: value})
        with pytest.raises(QueryError):
            QuerySpec.from_dict(payload).canonical_key()

    @pytest.mark.parametrize(
        "change",
        [
            {"target_se": float("nan")},
            {"target_se": 0.0},
            {"pilot_trials": -5},
            {"max_trials": 0},
        ],
    )
    def test_bad_adaptive_field_rejected_without_adaptive(self, change):
        """An out-of-range adaptive field is a bad request even when
        adaptive sampling is off, not a field the key drops."""
        payload = dict(_tiny_spec().to_dict(), **change)
        assert payload["adaptive"] is False
        with pytest.raises(QueryError):
            QuerySpec.from_dict(payload)

    @pytest.mark.parametrize(
        "change",
        [
            {"target_se": 1e-3},
            {"target_se_relative": True},
            {"pilot_trials": 4096},
            {"max_trials": 10000},
        ],
    )
    def test_valid_adaptive_field_keeps_key_without_adaptive(self, change):
        base = _tiny_spec()
        spec = QuerySpec.from_dict(dict(base.to_dict(), **change))
        assert spec.canonical_key() == base.canonical_key()


EXECUTION_OPTIONS = [
    dict(n_jobs=2),
    dict(n_jobs=0, retry=RetryPolicy(retries=0)),
    dict(retry=RetryPolicy(retries=5, allow_partial=False)),
    dict(resume=False),
]


class TestExecutionOptionsStayOutOfKeys:
    @pytest.mark.parametrize("options", EXECUTION_OPTIONS)
    def test_sweep_path_independent_of_execution(self, tmp_path, options):
        def sweep_path(**knobs):
            flow = build_flow(
                _tiny_spec(),
                ExecutionOptions(cache_dir=str(tmp_path), **knobs),
            )
            return flow.cache.path_for(
                "sweep",
                flow.config,
                flow.design.tech,
                {"particles": ["alpha"], "vdds": [0.8]},
            )

        assert sweep_path(**options) == sweep_path()

    @pytest.mark.parametrize("options", EXECUTION_OPTIONS)
    def test_model_independent_of_execution(self, tmp_path, options):
        """The service's model LRU key, and the simulator it names, are
        the same whatever the worker count or fault policy."""

        def model(**knobs):
            flow = build_flow(
                _tiny_spec(),
                ExecutionOptions(cache_dir=str(tmp_path), **knobs),
            )
            return flow.model_key(), pickle.dumps(flow.simulator())

        model()  # builds every artifact, so both models below load them
        assert model(**options) == model()
