"""The mutation census's list of accepted survivors stays in step with src/."""

import mutation_census


def test_each_accepted_mutant_names_exactly_one_mutation_point():
    # a refactor that moves or rewrites an accepted line fails here, not
    # only in a census run
    assert mutation_census.stale_accepted(mutation_census.mutation_points()) == []
