"""Every output of the command corpus (tests/corpus.py) against its digest."""

import pytest

import corpus


def test_the_digest_file_names_every_group():
    assert list(corpus.committed()) == list(corpus.commands())


@pytest.mark.parametrize("group", list(corpus.committed()))
def test_corpus_group_matches_its_digest(group):
    expected = corpus.committed()[group]
    assert corpus.digest(group) == expected, (
        f"an output of corpus group {group!r} changed; "
        "`python tests/corpus.py --against <parent>` lists the commands"
    )
