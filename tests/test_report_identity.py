"""Byte-identity guard: catalog reports, exit codes and golden output are pinned.

Every catalog example runs through check-op, check-compat, classify, reduce,
find-fluxes and find-bivectors with ``--json``; the sha256 of each report, the exit code and the standard
error must match the values recorded here, and so must the sha256 of the
standard output of ``examples run --all``.  A change that alters any verdict,
report byte or error text fails this test.
"""

import hashlib

import pytest

from hhokit.catalog import examples_catalog
from hhokit.cli import main

COMMANDS = ("check-op", "check-compat", "classify", "reduce", "find-fluxes", "find-bivectors")

# "<command> <example>" -> (exit code, report sha256 or None, standard error)
PINNED_REPORTS = {
    'check-compat hydro2-fail': (1, '4c6d58f8f3fab9fd39f430a080abcdfdbc440e4fa525f4355205946711f4a6cb', ''),
    'check-compat hydro2-pass': (0, '39cecb751f5d1a2af5d9cddcdb0d41b6c5935b3dfcf09109e36a0e7e0c45d2d7', ''),
    'check-compat kdv': (0, '8f4970811e078fd0faeaaf045e6817dde7d8d354f8960b235b7cc475dfe7e5c4', ''),
    'check-compat n4-second-order': (0, '78e1053a1054a9d94e60341b90a6baee395310c92dd2d056da045e1bd98304ce', ''),
    'check-compat nonlocal-hydro2': (0, 'a7b019bc2aa76b73f35c11b11d2565497ac1ddec0d4cfa90001a88036a72b9f6', ''),
    'check-compat oriented-assoc': (2, None, 'input error: the problem declares no operators\n'),
    'check-compat third-order-flat': (0, '9468b6f04178e600cdbbb9ecd663b79e2f4887473bf0bed02db9858f99fc4aaf', ''),
    'check-compat third-order-monge': (0, '19dab05b129c1336bef14dc7e604a457642cec1ab43c27775099efed6f9d7c48', ''),
    'check-compat transport': (0, '1769cc5ac881568a7a7ac7dfecb94afb7b0e5eaad8f389672cee272f5a279e16', ''),
    'check-op hydro2-fail': (0, 'fe82f7ae00170d80997a36c17acc6459b051069b618815fb38ed1635834fc8e1', ''),
    'check-op hydro2-pass': (0, 'eb5922a72bbeb5d98f22e1b9129d91a366f0348c91b7bbc0d1049b3534245486', ''),
    'check-op kdv': (2, None, "input error: 'A1' is a raw odd-variable vector; intrinsic operator checks need structured coefficients (use check-compat)\n"),
    'check-op n4-second-order': (0, '1e81471a1d4928b1e25c436901d00c07da13ff877960d0d0cc4916b8c771d7fb', ''),
    'check-op nonlocal-hydro2': (0, '36327322d1f7ab082449f8138c58aa8ff0d8d892d46b8aefc9ba5a039506386b', ''),
    'check-op oriented-assoc': (2, None, 'input error: the problem declares no operators\n'),
    'check-op third-order-flat': (0, 'cf9dc5160cfe9511aad59f6f6cb39b6fcb1ee3639abcdcee1ead55f779528dbd', ''),
    'check-op third-order-monge': (0, 'cb8d6c765c07e9e4739bfdf6a1265c89690b17bbf5a8d411e2ed253b5b7299b8', ''),
    'check-op transport': (2, None, "input error: 'A1' is a raw odd-variable vector; intrinsic operator checks need structured coefficients (use check-compat)\n"),
    'classify hydro2-fail': (1, '429c9ed06c77be212f320cf7df7af9735ae57a5549da8e0c99a0fef8dd174a4f', ''),
    'classify hydro2-pass': (1, 'e540a110feab5ff225ebdd02ad16456508f4ecc7466f98603c429c4304542422', ''),
    'classify kdv': (2, None, 'input error: classify needs a hydrodynamic or conservative system\n'),
    'classify n4-second-order': (0, '436ea7f8eb59a5dc2c7c99aee604820bebf8453dc804e55cd1641060e78ce151', ''),
    'classify nonlocal-hydro2': (1, '905da7900e34741e56f152ab25b4acdfe8bd2481217762d5b2591cd991c2b04d', ''),
    'classify oriented-assoc': (1, 'f2417f62363377ce0c9d04427a8fa07144db0f10facf0e70b0216908f4ed7ec9', ''),
    'classify third-order-flat': (1, '623820e1525ce196a5bc790af6ae1fac3a438c6cfd8521303d943b8dd3a1be83', ''),
    'classify third-order-monge': (0, '6dbbcea573dfc0eb2721405acdf38cb32894abd7d4c941a9c1df43297da40cd5', ''),
    'classify transport': (2, None, 'input error: classify needs a hydrodynamic or conservative system\n'),
    'find-bivectors hydro2-fail': (0, '4ed75b96af3064b1e028bf39061dc7396a40b702dc3bb2819a582d1c68530b0d', ''),
    'find-bivectors hydro2-pass': (0, '8eb35832e12e2c972fe99bdefc568fbb458684d5aa95392de9aa5feaea5e2cf5', ''),
    'find-bivectors kdv': (0, '2b2a067d1f90c4c99001e3661529fed85a032d9202cf249336282d6260940416', ''),
    'find-bivectors n4-second-order': (2, None, 'input error: formal parameter c1 in flux 1: a search names its own parameters c1, c2, ..., so its data must be parameter-free\n'),
    'find-bivectors nonlocal-hydro2': (0, '1559c11755e625464cff26f19eb807a2a96de1c17c0eeeac1844438a9008dd49', ''),
    'find-bivectors oriented-assoc': (0, '41f0122d61cba092f634d56d40e1687e0e2f43e895f2f6fd7091e572b6b9eb7a', ''),
    'find-bivectors third-order-flat': (0, '9b51196f6dadfc51ab5a9829d529100dc9072543c5f1d4db4499c4ae5584478c', ''),
    'find-bivectors third-order-monge': (0, '0e686be51574953a539aa0d3bc859af3c963b030579c3a5cb13f2ac0d39de8f5', ''),
    'find-bivectors transport': (0, '6ce0b2047506077e6a269491a0f11bf1830010cce34c9265e787f25afc14ec98', ''),
    'find-fluxes hydro2-fail': (2, None, 'input error: find-fluxes needs --operator NAME\n'),
    'find-fluxes hydro2-pass': (2, None, 'input error: find-fluxes needs --operator NAME\n'),
    'find-fluxes kdv': (2, None, 'input error: find-fluxes needs --operator NAME\n'),
    'find-fluxes n4-second-order': (0, 'f4f30336594222102e625ee57ff552a91bbc2af21a3a2940efdc736d72ea4f1a', ''),
    'find-fluxes nonlocal-hydro2': (2, None, 'input error: find-fluxes needs --operator NAME\n'),
    'find-fluxes oriented-assoc': (2, None, 'input error: find-fluxes needs --operator NAME\n'),
    'find-fluxes third-order-flat': (2, None, 'input error: find-fluxes needs --operator NAME\n'),
    'find-fluxes third-order-monge': (2, None, 'input error: find-fluxes needs --operator NAME\n'),
    'find-fluxes transport': (2, None, 'input error: find-fluxes needs --operator NAME\n'),
    'reduce hydro2-fail': (1, '26e7c43f83af34d4d1db5c5d609c67c7bcfe95a35b286caef67ef13af6755955', ''),
    'reduce hydro2-pass': (0, 'c5a5f97c4af1803feea1049b04d4054ad705b91e230dca84842a41f3045cb5ce', ''),
    'reduce kdv': (0, 'a0ec4de0dbd6961365250893156532ebdcdc5a193a462d88f9b4220ac19d8230', ''),
    'reduce n4-second-order': (2, None, 'input error: reduce supports bivector, first- or third-order operators\n'),
    'reduce nonlocal-hydro2': (0, '53e2a67b0247f04af20aec2662a8299e4f7993845725c509b38f8e497c075b0b', ''),
    'reduce oriented-assoc': (2, None, 'input error: the problem declares no operators\n'),
    'reduce third-order-flat': (0, '1bfa8ea882483bd515570f251ea3fa228b432c5097f046b0aed54ae237b8ea58', ''),
    'reduce third-order-monge': (0, 'a3898196abbb0fef47b56a3c3d686be185df5c0691add04eff285e3f7a4b6d0d', ''),
    'reduce transport': (0, '6539ff91cff335aee3edd8a499d13a70b30767ae88fd1693918541a64f3e68d5', ''),
}

EXAMPLES_RUN_ALL_SHA256 = '487ebb6275087b16feca256d1126c051249a9bd1bc594289cbd388a26f549d00'


def test_pins_cover_the_catalog():
    keys = {f"{cmd} {entry.name}" for entry in examples_catalog() for cmd in COMMANDS}
    assert keys == set(PINNED_REPORTS)


@pytest.mark.parametrize("key", sorted(PINNED_REPORTS))
def test_catalog_report_bytes_pinned(key, tmp_path, capsys):
    command, example = key.split(" ")
    path = tmp_path / "report.json"
    code = main([command, "--example", example, "--json", str(path)])
    err = capsys.readouterr().err
    digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    assert (code, digest, err) == PINNED_REPORTS[key]


def test_examples_run_all_output_pinned(capsys):
    assert main(["examples", "run", "--all"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == EXAMPLES_RUN_ALL_SHA256
