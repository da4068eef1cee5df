"""Every process-wide cache of the package is listed, with its key and why
it stays bounded.

The package's caches are ``functools.lru_cache(maxsize=None)`` functions:
they keep each entry for the life of the process, so each key must range
over a set that the inputs bound, and no entry may grow with a tower's
phi(k).  A cache added or removed without an edit here fails this test.
"""

import ast
from pathlib import Path

_SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "lzero").glob("*.py"))

# "module.function": (key, why the cache is bounded)
ALLOWED = {
    "characters._prime_power_table": (
        "(q, a)", "one entry per prime power q^a dividing a modulus up to MAX_MODULUS"),
    "characters._components": (
        "modulus", "one entry per modulus seen; its parts share the prime-power tables"),
    "characters.unit_group_basis": (
        "modulus", "one generator list per modulus seen"),
    "characters._units": (
        "modulus", "phi(f) units per modulus seen"),
    "characters._dlog_table": (
        "modulus", "phi(f) exponent tuples per modulus seen"),
    "characters._char_data": (
        "(modulus, exponents)", "one order and weight tuple per character evaluated"),
    "characters._minus_one_exponents": (
        "modulus", "one exponent tuple per modulus seen"),
    "cyclo.cyclotomic_poly": (
        "k", "phi(k) + 1 coefficients per cyclotomic order seen"),
    "cyclo._ctx": (
        "k", "the reduction stages of Phi_k, per cyclotomic order seen"),
    "nt.smallest_primitive_root": (
        "q", "one int per prime seen"),
    "padic.residue_factor": (
        "(p, k')", "f coefficients mod p per prime and tame part"),
    "padic._binomial_rows": (
        "(e, p^N)", "e(e + 1)/2 residues per ramification index and precision; "
        "N doubles from N_START up to N_CAP, and every k' shares the triangle"),
    "padic.build_tower": (
        "(p, k, N)", "a tower's eight fields, with no table"),
    "padic._power_residues": (
        "(p, k')", "k' residue rows of f coefficients mod p"),
    "padic._tame_part": (
        "(p, k)", "two ints per prime and order"),
}


def _is_cache_decorator(node: ast.expr) -> bool:
    """functools.lru_cache or functools.cache, called or not, qualified or not."""
    if isinstance(node, ast.Call):
        node = node.func
    name = (node.attr if isinstance(node, ast.Attribute)
            else node.id if isinstance(node, ast.Name) else None)
    return name in ("lru_cache", "cache")


def _cached_functions(tree: ast.Module) -> list[ast.FunctionDef]:
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(map(_is_cache_decorator, node.decorator_list))]


def _takes_a_tower(fn: ast.FunctionDef) -> bool:
    """A parameter annotated PadicTower (as a name or a string) or named tower."""
    args = fn.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        note = arg.annotation
        if arg.arg == "tower" or (note is not None and "PadicTower" in ast.unparse(note)):
            return True
    return False


def _inventory() -> dict[str, ast.FunctionDef]:
    found = {}
    for path in _SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in _cached_functions(tree):
            found[f"{path.stem}.{fn.name}"] = fn
    return found


def test_a_cache_and_a_tower_key_are_caught():
    tree = ast.parse(
        "import functools\nfrom functools import cache\n"
        "@functools.lru_cache(maxsize=None)\ndef a(tower: PadicTower): pass\n"
        "@functools.cache\ndef b(t: 'PadicTower'): pass\n"
        "@cache\ndef c(tower): pass\n"
        "@staticmethod\ndef d(p: int): pass\n")
    fns = _cached_functions(tree)
    assert [fn.name for fn in fns] == ["a", "b", "c"]
    assert all(map(_takes_a_tower, fns))
    assert not _takes_a_tower(tree.body[-1])


def test_every_cache_is_listed():
    assert sorted(_inventory()) == sorted(ALLOWED)


def test_no_padic_cache_takes_a_tower():
    # a table kept under a tower would be one entry per (p, k, N), of
    # phi(k) e f residues
    keyed = [name for name, fn in _inventory().items()
             if name.startswith("padic.") and _takes_a_tower(fn)]
    assert keyed == []
