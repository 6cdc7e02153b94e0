"""Design-space membership, for tests that check where a sampler,
mutation or crossover lands."""


def in_space(space, config) -> bool:
    """Whether every field of ``config`` is one of its dimension's choices."""
    choices = {dim.name: dim.choices for dim in space.dimensions}
    return all(value in choices[name] for name, value in space.from_config(config).items())
