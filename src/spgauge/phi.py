"""Image of the comparison map from symplectic K-theory to top cohomology.

The image of a degree-(4n+2) class group under the comparison map is a
subgroup of Z; its generators come from scaling the tabulated top
coefficients by (2n+1)!.  The order of the Samelson product of the bottom
cell with the rank-n quasi-projective inclusion is the index of that image,
computed along two independent routes (plain gcd, and element order in a
Smith-form cokernel) that must agree.

The series backend's generators are integers outright:
(2n+1)! * surj(2n-1, k)/(2n-1)! = 2n(2n+1) * surj(2n-1, k).  phi_images
streams them rank by rank from a single row of surjection counts advanced
by the Stirling recurrence, so a sweep over n = 1..N never rebuilds a count.
BACKENDS names the coefficient conventions; phi_image alone dispatches on
them, and the printed one, kept for comparison, comes from series.  The
closed form B = 4n(2n+1) comes from arith, and every p-local answer, the
guarded p-part of B too, from gauge: this module keeps only the image.
lattice and series are imported where they are first used, so a command
that reads neither route does not load them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from math import factorial, gcd
from typing import Iterator

from .arith import closed_form_order, require_rank
from .errors import NonIntegralGenerator, OracleMismatch, OutOfRange

# the coefficient conventions phi_image knows; the first is the engine's
BACKENDS = ("series", "printed")


@dataclass(frozen=True)
class PhiResult:
    """Image data for rank n.

    lower_gen is the scaled doubled-line anchor (always 4n(2n+1)); the image
    is generated by upper_gens.  pinned_order is their gcd when it coincides
    with lower_gen, which pins the image exactly; None means the two bounds
    left a gap (the order is not pinned).
    """

    n: int
    backend: str
    lower_gen: int
    upper_gens: tuple[int, ...]
    pinned_order: int | None


def _image(n: int, backend: str, gens: list[int]) -> PhiResult:
    """PhiResult for the generators gens, gens[0] being the anchor."""
    lower = gens[0]
    g = gcd(*gens)
    return PhiResult(
        n=n,
        backend=backend,
        lower_gen=lower,
        upper_gens=tuple(gens),
        pinned_order=g if g == lower else None,
    )


def phi_images(max_n: int) -> Iterator[PhiResult]:
    """Series-backend image data for n = 1, 2, ..., max_n, in order.

    Keeps one row surj(m, 0..min(m, max_n)) and moves it two steps per rank
    with surj(m, k) = k * (surj(m-1, k) + surj(m-1, k-1)) (Stirling numbers
    of the second kind, times k!; Graham-Knuth-Patashnik, Concrete
    Mathematics 6.1).  At rank n the row is m = 2n-1; the anchor is
    4n(2n+1) and the k-th generator 2n(2n+1) * surj(2n-1, k).  No rank
    reads k > max_n, so the row stops there.  Raises OutOfRange for
    max_n < 1 at the call, before any item is made.
    """
    require_rank(max_n)
    return map(_series_image, count(1), _surjection_rows(max_n))


def _surjection_rows(max_n: int) -> Iterator[list[int]]:
    """A new list surj(2n-1, 0..min(2n-1, max_n)) for each n = 1..max_n."""
    row = [0, 1]  # surj(1, .)
    for n in range(1, max_n + 1):
        if n > 1:
            for _ in range(2):
                new = [0] + [k * (row[k] + row[k - 1]) for k in range(1, len(row))]
                if len(row) <= max_n:  # surj(m, m) = m * surj(m-1, m-1)
                    new.append(len(row) * row[-1])
                row = new
        yield row


def _series_image(n: int, row: list[int]) -> PhiResult:
    scale = 2 * n * (2 * n + 1)
    gens = [2 * scale] + [scale * row[k] for k in range(2, n + 1)]
    return _image(n, "series", gens)


def phi_image(n: int, backend: str = "series") -> PhiResult:
    """Compute the image subgroup data for rank n.

    The series backend is the n-th item of phi_images.  The printed backend
    keeps the doubled-line anchor 4n(2n+1), which is (2n+1)! * 2/(2n-1)!,
    and scales series.printed_top_coeffs for k = 2..n by (2n+1)!; each
    product must be an integer, and the first non-integral one means the
    coefficient convention is broken and raises NonIntegralGenerator.
    Signs are dropped, since a subgroup of Z does not see them.  Raises
    OutOfRange for n < 1 and for a backend not in BACKENDS.
    """
    require_rank(n)
    if backend not in BACKENDS:
        raise OutOfRange(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if backend == "series":
        for row in _surjection_rows(n):
            pass
        return _series_image(n, row)
    from .series import printed_top_coeffs

    scale = factorial(2 * n + 1)
    gens = [closed_form_order(n)]
    for top in islice(printed_top_coeffs(n), 1, None):
        val = scale * top
        if val.denominator != 1:
            raise NonIntegralGenerator(
                f"(2n+1)! * {top} is not an integer at n={n}"
            )
        gens.append(abs(int(val)))
    return _image(n, backend, gens)


def samelson_order(n: int) -> int:
    """Order of the Samelson product of the bottom cell with the rank-n
    quasi-projective inclusion: checked_order of the series-backend image."""
    return checked_order(phi_image(n, "series"))


def checked_order(result: PhiResult) -> int:
    """The Samelson order read off series-backend image data.

    Reads the order both as the gcd of the image generators and as the order
    of the fundamental class in the cokernel of the image presentation, and
    checks both against the closed form 4n(2n+1).  Any disagreement raises
    OracleMismatch.
    """
    from .lattice import IntMatrix, element_order_in_coker

    n = result.n
    if result.pinned_order is None:
        raise OracleMismatch(
            f"series-backend image at n={n} failed to pin the order"
        )
    direct = result.pinned_order
    gens = result.upper_gens
    via_coker = element_order_in_coker(IntMatrix(1, len(gens), gens), (1,))
    if via_coker != direct:
        raise OracleMismatch(
            f"gcd route gave {direct} but cokernel route gave {via_coker} at n={n}"
        )
    if direct != closed_form_order(n):
        raise OracleMismatch(
            f"pipeline order {direct} differs from closed form "
            f"{closed_form_order(n)} at n={n}"
        )
    return direct
