"""The package surface is the union of the modules' `__all__` lists."""
from __future__ import annotations

from collections import Counter

import tailratio
from tailratio import dist, errors, evidence, experiments, fit, gof, io, seeds

MODULES = (dist, errors, evidence, experiments, fit, gof, io, seeds)

PUBLIC_NAMES = [
    "BloodTypeTable", "DEFAULT_MATED_MODEL", "DEFAULT_STUDY_FIT_CONFIG", "DEFAULT_THRESHOLDS",
    "DataFormatError", "DiscreteWoe", "DomainError", "EvidenceReport", "FitConfig", "FitFailureError",
    "FitResult", "GofOutcome", "MixtureModel", "ModelError", "ModelFile",
    "NoTippingPointError", "PValueStudyResult", "REFERENCE_NONMATED_MODEL", "ScoreDataset", "SplitResult",
    "SynthConfig", "TailAudit", "TailratioError", "ThresholdTable",
    "ToyScenario", "ToyStudy", "Violation", "__version__", "ad_statistic", "ad_weight",
    "asymptotic_ad_pvalue", "asymptotic_ks_pvalue", "bootstrap_pvalue", "build_meta", "config_digest",
    "default_toy_scenarios", "discrete_woe", "evidence_numbers", "fit_mixture", "format_value", "generate_synthetic",
    "init_params", "ks_statistic", "load_model", "load_scores", "load_table1_fixture", "load_table4_summary",
    "load_threshold_table", "log_likelihood", "mixture_cdf", "mixture_pdf", "mixture_quantile",
    "mixture_sample", "mixture_sf", "packaged_data_path", "pvalue_study", "save_model", "save_scores",
    "specific_source_lr", "split_dataset", "substream", "table_fixture_check", "tail_audit",
    "tail_ratio", "threshold_study", "tipping_score", "toy_study", "write_csv",
]


def test_public_names_pinned():
    assert sorted(tailratio.__all__) == PUBLIC_NAMES
    assert [name for name in tailratio.__all__ if not hasattr(tailratio, name)] == []


def test_every_public_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(tailratio, name) is getattr(module, name), (module.__name__, name)


def test_each_name_in_one_module_list():
    counts = Counter(name for module in MODULES for name in module.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
    assert sorted(["__version__", *counts]) == sorted(tailratio.__all__)
