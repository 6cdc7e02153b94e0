"""A network's PPA from an engine: one ``evaluate_layers`` call over the
mapped layers, composed by the one network-PPA rule
(:func:`repro.ppa.compose_network_ppa`)."""

from repro.ppa import compose_network_ppa


def network_ppa(engine, hw, mappings):
    """PPA of ``hw`` under ``{layer name: mapping}``; unmapped layers make
    it infeasible.  Each mapped layer is one query."""
    items = [(mapping, name) for name, mapping in mappings.items()]
    answers = engine.evaluate_layers(hw, items)
    return compose_network_ppa(
        {name: count for name, (_shape, count) in engine.layer_shapes.items()},
        {name: answer for (_mapping, name), answer in zip(items, answers)},
        engine.area_mm2(hw),
    )
