import json
import math
import random
from fractions import Fraction

import pytest

from ballavoid.cli import main
from ballavoid.concentration import (
    C_STAR,
    _width_ok_from,
    best_certificate,
    certified_ratio_lower_bound,
    certifying_constants,
    concentration_bound,
    minimal_certified_n,
)
from ballavoid.construction import CANONICAL_OFFSET
from ballavoid.errors import CertificateError, DomainError
from ballavoid.volume import ratio_S

A = CANONICAL_OFFSET


class TestConcentrationBound:
    def test_hand_values(self):
        assert concentration_bound(2.0) == pytest.approx(1 - math.exp(-2), abs=1e-15)
        assert concentration_bound(1.0) == pytest.approx(-0.2130613194, abs=1e-10)

    def test_large_c_saturates(self):
        assert abs(concentration_bound(10.0) - 1.0) <= 1e-15

    def test_vacuous_bound_returned_not_clamped(self):
        assert concentration_bound(1.0) < 0

    def test_hypothesis_c_at_least_one(self):
        with pytest.raises(DomainError):
            concentration_bound(0.99)


class TestCertifiedLowerBound:
    def test_wide_dimension_hand_value(self):
        c = (2 * A - 1) * math.sqrt(39)
        scaled = certified_ratio_lower_bound(40, c)
        assert scaled == pytest.approx(1.9114495, abs=1e-6)
        assert scaled >= 1.9

    def test_threshold_pair(self):
        scaled = certified_ratio_lower_bound(15, 1.44)
        assert scaled == pytest.approx(1.0150346, abs=1e-6)
        assert scaled > 1.0

    def test_width_violation_names_required_dimension(self):
        with pytest.raises(CertificateError, match=r"certifies only n >= 15$"):
            certified_ratio_lower_bound(10, 1.44)

    def test_never_exceeds_exact_ratio(self):
        for n in (15, 20, 28, 40, 64):
            for c in (1.44, 1.6, 2.0, 2.4):
                try:
                    scaled = certified_ratio_lower_bound(n, c)
                except CertificateError:
                    continue
                assert scaled <= ratio_S(n).scaled

    def test_dimension_precondition(self):
        with pytest.raises(DomainError):
            certified_ratio_lower_bound(2, 2.0)


class TestMinimalCertifiedN:
    def test_c_two(self):
        cert = minimal_certified_n(2.0)
        assert cert.n_min == 28
        assert cert.bound_factor == pytest.approx(2 * (1 - math.exp(-2)), abs=1e-12)

    def test_threshold_constant_certifies_fifteen(self):
        assert minimal_certified_n(1.44).n_min == 15

    def test_too_small_c_has_no_certificate(self):
        with pytest.raises(CertificateError):
            minimal_certified_n(1.40)

    def test_width_threshold_monotone_in_c(self):
        certs = [minimal_certified_n(c) for c in (1.45, 1.6, 1.9, 2.3, 2.9)]
        widths = [cert.n_min for cert in certs]
        assert all(b >= a for a, b in zip(widths, widths[1:]))


class TestWidthOkFrom:
    """The smallest n with c/sqrt(n-1) <= 2a - 1, that is n - 1 >= k for
    k = (c/(2a - 1))^2, checked in exact arithmetic on the doubles c and a."""

    def test_matches_exact_oracle_near_half(self):
        # In floats, 28 of 2943 such calls were one off, all at n >= 1.18e14.
        rng = random.Random(13)
        for _ in range(3000):
            a = 0.5 + 10.0 ** rng.uniform(-8.0, -0.302)
            c = rng.choice([C_STAR, rng.uniform(1.0, 3.0)])
            k = (Fraction(c) / (2 * Fraction(a) - 1)) ** 2
            n = _width_ok_from(c, a)
            assert n >= 3 and n - 1 >= k, (a, c)
            assert n == 3 or n - 2 < k, (a, c)

    def test_largest_dimension_is_exact(self):
        # The float form ceil((c / (2a - 1))^2) + 1 gives 4619273621578101.
        c = math.nextafter(C_STAR, math.inf)
        assert _width_ok_from(c, 0.5000000105413933) == 4619273621578102

    @pytest.mark.parametrize("c", [math.inf, math.nan, 1e200])
    def test_beyond_float_range_is_domain_error(self, c):
        with pytest.raises(DomainError):
            _width_ok_from(c, A)


def scan_certificates(a, c_min, c_max, step=1e-4):
    """minimal_certified_n at every grid constant in [c_min, c_max]."""
    certs = []
    for k in range(round((c_max - c_min) / step) + 1):
        try:
            certs.append(minimal_certified_n(min(c_min + k * step, c_max), a))
        except CertificateError:
            continue
    return certs


class TestBestCertificate:
    def test_best_certificate_reaches_fifteen(self):
        cert = best_certificate()
        assert cert.n_min <= 15
        assert cert.bound_factor > 1.0

    @pytest.mark.parametrize("a", [A, 0.6, 0.9])
    @pytest.mark.parametrize("c_min, c_max", [(1.0, 3.0), (2.0, 2.0), (1.5, 1.7)])
    def test_matches_brute_force_scan(self, a, c_min, c_max):
        scan = scan_certificates(a, c_min, c_max)
        n_min = min(cert.n_min for cert in scan)
        c_top = max(cert.c for cert in scan if cert.n_min == n_min)
        best = best_certificate(a, c_min, c_max)
        assert best.n_min == n_min
        assert c_top - 1e-12 <= best.c <= c_top + 1e-4
        c_lo, c_hi, n_lo = certifying_constants(a, c_min, c_max)
        assert (c_hi, n_lo) == (best.c, n_min)
        assert c_lo <= min(cert.c for cert in scan if cert.n_min == n_min)

    def test_canonical_interval(self):
        assert certifying_constants() == (C_STAR, 1.449614930883783, 15)
        assert minimal_certified_n(1.449614930883783).n_min == 15

    @staticmethod
    def assert_largest_certifying(a, c_min, c_max):
        # c_hi is the largest double in [c_lo, c_max] whose slab fits at
        # n_min, decided on the doubles c_hi and a in exact arithmetic.
        _, c_hi, n_min = certifying_constants(a, c_min, c_max)

        def fits(c):
            return (Fraction(c) / (2 * Fraction(a) - 1)) ** 2 <= n_min - 1

        assert fits(c_hi), (a, c_min, c_max)
        assert c_hi == c_max or not fits(math.nextafter(c_hi, math.inf)), (a, c_min, c_max)
        assert minimal_certified_n(c_hi, a).n_min == n_min, (a, c_min, c_max)

    @pytest.mark.parametrize("a", [A, 0.55, 0.6, 0.75, 0.9, 0.5001, 0.500001, 0.6500896940382012])
    @pytest.mark.parametrize("c_min, c_max", [(1.0, 3.0), (1.5, 1.7), (2.0, 2.0)])
    def test_printed_constant_certifies(self, a, c_min, c_max):
        self.assert_largest_certifying(a, c_min, c_max)

    def test_printed_constant_is_largest_at_seeded_offsets(self):
        # At every offset, not only the listed ones: (2a - 1) sqrt(n_min - 1)
        # rounded in floats and walked down to a fit can stop one ulp short
        # (169 of 20000 such draws).
        rng = random.Random(5)
        for _ in range(2000):
            a = rng.uniform(0.5005, 0.999)
            self.assert_largest_certifying(a, rng.choice([1.0, rng.uniform(1.0, 2.5)]), 3.0)

    @pytest.mark.parametrize("a", [0.5001, 0.500001, 0.5000000659524089, 0.50000001])
    def test_certificate_covers_its_own_n_min_near_half(self, a):
        assert best_certificate(a).n_min == certifying_constants(a)[2]

    def test_certificate_covers_its_own_n_min_at_seeded_offsets_near_half(self):
        # n_min must be certified by a double: the smallest n whose slab
        # admits reals just above C_STAR can admit no double but C_STAR,
        # whose bound factor rounds to 1 (8922 of 20000 such offsets).
        rng = random.Random(5)
        for _ in range(500):
            a = 0.5 + 10.0 ** rng.uniform(-13.0, -1.0)
            assert best_certificate(a).n_min == certifying_constants(a)[2], a

    def test_no_certificate_in_vacuous_range(self):
        with pytest.raises(CertificateError):
            best_certificate(c_min=1.0, c_max=1.3)
        with pytest.raises(CertificateError):
            best_certificate(c_min=1.0, c_max=C_STAR)

    def test_range_precondition(self):
        with pytest.raises(DomainError):
            certifying_constants(c_min=2.0, c_max=1.5)


class TestCStar:
    def test_matches_lambert_w(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        exact = float(mpmath.sqrt(mpmath.lambertw(16)))
        assert abs(C_STAR - exact) <= math.ulp(exact)

    def test_bound_factor_crosses_one(self):
        assert 2 * concentration_bound(C_STAR) == pytest.approx(1.0, abs=1e-15)
        assert 2 * concentration_bound(C_STAR * (1 + 1e-12)) > 1.0
        assert 2 * concentration_bound(C_STAR * (1 - 1e-12)) < 1.0


def concentration_rows(capsys, n_max, c_list):
    """Rows of the concentration-check command, the one code path that
    checks the cited inequality against the exact slab fraction."""
    code = main(["concentration-check", "--n-max", str(n_max), "--c-list", c_list,
                 "--format", "json"])
    return code, json.loads(capsys.readouterr().out)["results"]["rows"]


class TestValidateTheorem:
    def test_hand_cubic_case(self, capsys):
        # n=3, c=1: exact slab fraction (3/2)(h - h^3/3) at h = 1/sqrt(2).
        h = 1 / math.sqrt(2)
        exact = 1.5 * (h - h**3 / 3)
        assert exact == pytest.approx(0.8838834765, abs=1e-9)
        code, rows = concentration_rows(capsys, 3, "1")
        assert code == 0
        assert rows[0]["exact"] == pytest.approx(exact, rel=1e-14)
        assert rows[0]["status"] == "ok"

    def test_wide_slab_rejected(self, capsys):
        # c = 1 keeps the grid non-empty: a list whose every slab is too
        # wide is a usage error (tests/test_cli.py).
        code, rows = concentration_rows(capsys, 3, "1,2")
        assert code == 0
        assert rows[1] == {"n": 3, "c": 2.0, "exact": "", "bound": "", "slack": "",
                           "status": "skipped: width > 1"}

    def test_full_grid(self, capsys):
        code, rows = concentration_rows(capsys, 50, "1,1.5,2,3")
        assert code == 0
        checked = [r for r in rows if r["status"] != "skipped: width > 1"]
        assert {(r["n"], r["c"]) for r in checked} == {
            (n, c) for n in range(3, 51) for c in (1.0, 1.5, 2.0, 3.0) if c / math.sqrt(n - 1) <= 1.0}
        assert all(r["status"] == "ok" and r["slack"] >= 0 for r in checked)
