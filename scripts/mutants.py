#!/usr/bin/env python3
"""Mutation check: do the tier-1 tests fail when the code is wrong?

Each mutant below replaces one line of the package. For each, the script
copies the working tree's ``src``, ``tests`` and ``scripts`` to a temporary
directory, applies the mutant there, runs the tier-1 tests on the copy and
prints ``killed`` (the tests failed) or ``survived``. The unmutated copy is
run first and must pass. Equivalent mutants change nothing any output can
show; they are listed with the reason and are expected to survive.

Usage: scripts/mutants.py

Exit code: 0 if every non-equivalent mutant is killed, 1 if one survives, 2 if
a mutant no longer matches the source or the unmutated tests fail. Nothing is
written inside the checkout.
"""
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "pyproject.toml")

# (name, file, original line text, mutated text, reason if equivalent)
MUTANTS = [
    ("su2 phase sign", "src/helispin/su2.py",
     "np.exp(-0.5j * np.asarray(phi", "np.exp(0.5j * np.asarray(phi", None),
    ("exp(+i phi/2) = exp(-i phi/2)", "src/helispin/su2.py",
     "e_plus = np.conj(e_minus)", "e_plus = e_minus", None),
    ("D in place of D^dagger", "src/helispin/su2.py",
     "return d11 * up - d01 * down, d00 * down - d10 * up",
     "return d00 * up + d01 * down, d10 * up + d11 * down", None),
    ("full in place of half angles", "src/helispin/su2.py",
     "half = 0.5 * np.asarray(theta", "half = 1.0 * np.asarray(theta", None),
    ("outer product conjugates up", "src/helispin/density.py",
     "ud = measure(up * np.conj(down))", "ud = measure(np.conj(up) * down)", None),
    ("outer product filled transposed", "src/helispin/density.py",
     "out[0, 1], out[1, 0] = ud, np.conj(ud)", "out[0, 1], out[1, 0] = np.conj(ud), ud", None),
    ("polar weight without sin(theta)", "src/helispin/quadrature.py",
     "wtheta = wt * np.sin(theta)", "wtheta = wt * 1.0", None),
    ("radial measure p*w", "src/helispin/quadrature.py",
     "return self.radial_weights * self.radial_nodes**2",
     "return self.radial_weights * self.radial_nodes", None),
    ("entropy in nats", "src/helispin/density.py",
     "v * np.log2(v)", "v * np.log(v)", None),
    ("anisotropic amplitude without square root", "src/helispin/states.py",
     "np.sqrt(1.0 + a * np.cos(theta))", "(1.0 + a * np.cos(theta))", None),
    ("winding sign", "src/helispin/states.py",
     "np.exp(1j * k * np.asarray(phi))", "np.exp(-1j * k * np.asarray(phi))",
     "a winding phase multiplies the whole spinor, so every a a^dagger is unchanged"),
    ("phi nodes offset by a quarter spacing", "src/helispin/quadrature.py",
     "phi = (np.arange(n_phi) + 0.5)", "phi = (np.arange(n_phi) + 0.75)",
     "a uniform periodic rule is exact at any offset for every integrand in scope"),
    ("Monte-Carlo weight exp(p/(2.2 sigma))", "src/helispin/oracles.py",
     "scale = np.exp(p / (2.0 * sigma))", "scale = np.exp(p / (2.2 * sigma))", None),
    ("Monte-Carlo ESS = n", "src/helispin/oracles.py",
     "ess = float(min(trace * trace / sum_b2, n_samples))", "ess = float(n_samples)", None),
    ("Monte-Carlo standard errors doubled", "src/helispin/oracles.py",
     "std_error = np.sqrt(", "std_error = 2.0 * np.sqrt(", None),
]


def tests_pass(tree: Path) -> bool:
    """Run tier-1 on a copied tree, stopping at the first failure."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src"),
                       "PYTHONDONTWRITEBYTECODE": "1"},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return result.returncode == 0


def fresh_copy(tmp: Path) -> Path:
    tree = tmp / "tree"
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir()
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(source, tree / name)
    return tree


def main() -> int:
    for name, path, old, new, _ in MUTANTS:
        if (ROOT / path).read_text().count(old) != 1:
            print(f"mutant {name!r}: {old!r} does not occur exactly once in {path}")
            return 2
    survivors = []
    with tempfile.TemporaryDirectory(prefix="helispin-mutants-") as tmp:
        if not tests_pass(fresh_copy(Path(tmp))):
            print("the unmutated tests fail; no mutant can be judged")
            return 2
        for name, path, old, new, equivalent in MUTANTS:
            tree = fresh_copy(Path(tmp))
            target = tree / path
            target.write_text(target.read_text().replace(old, new))
            killed = not tests_pass(tree)
            verdict = "killed" if killed else "survived"
            if equivalent:
                verdict += f" (equivalent: {equivalent})"
            elif not killed:
                survivors.append(name)
            print(f"{name}: {verdict}", flush=True)
    print(f"{len(survivors)} non-equivalent mutant(s) survived{': ' if survivors else ''}"
          + ", ".join(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
