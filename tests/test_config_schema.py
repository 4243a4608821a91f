"""The CLI config schema admits exactly the fields its dataclasses take.

``ExperimentConfig.from_dict`` expands each schema object straight into its
dataclass, so a field the schema lacks cannot be set from a config file, and
a key the dataclass lacks fails at construction. Deleting or adding a field
must move both together.
"""

import dataclasses

from robustpca import AdversarySpec, AlgoConfig, InlierSpec
from robustpca.cli import CONFIG_SCHEMA, ExperimentConfig


def _fields(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_schema_keys_are_the_dataclass_fields():
    props = CONFIG_SCHEMA["properties"]
    assert set(props["algo"]["properties"]) == _fields(AlgoConfig)
    assert set(props["inlier"]["properties"]) == _fields(InlierSpec)
    # ``inspect`` takes a callable, which JSON cannot carry.
    assert set(props["adversary"]["properties"]) == _fields(AdversarySpec) - {"inspect"}
    assert set(props) == _fields(ExperimentConfig) | {"version"}
