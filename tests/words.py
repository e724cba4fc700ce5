"""Cycle equality up to rotation, for tests; the package compares exact words."""


def _text(word):
    # delimited on both sides, so a match aligns with whole letters
    return "," + ",".join(map(str, word)) + ","


def rotation_equal(a, b):
    """True when ``b`` is a cyclic rotation of ``a``: a search in doubled ``b``."""
    a, b = tuple(a), tuple(b)
    return len(a) == len(b) and _text(a) in _text(b + b)


def is_cyclic_palindrome(word):
    """True when the reversed word is one of the word's cyclic rotations."""
    return rotation_equal(word, tuple(word)[::-1])
