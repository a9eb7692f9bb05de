"""Residual-equation states and the pruning/endgame algebra built on them.

A candidate n is a product of distinct primes 5 <= q1 < q2 < ... < qk and
must satisfy 3*prod(qi - 1) = 2*prod(qi) + 2.  Absorbing a chosen prefix of
primes leaves a residual equation

    alpha * prod(q - 1 for remaining q) = beta * prod(remaining q) + gamma

normalized so gcd(alpha, beta) = 1.  The search walks these states; this
module owns the state transition (absorb_prime), the upper bound on the
next prime (finiteness_bound, closed on the limit through limit_bound's
budget) and the closed-form endgames for one and two remaining primes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import compress
from math import gcd, isqrt, prod
from typing import NamedTuple

from .arith import PrimeTable, factorize, is_prime

__all__ = [
    "EquationState",
    "Pruned",
    "root_state",
    "absorb_prime",
    "finiteness_bound",
    "limit_bound",
    "one_prime_solve",
    "residue_closes",
    "two_prime_args",
    "two_prime_solve",
]

ROOT_ALPHA = 3
ROOT_BETA = 2
ROOT_GAMMA = 2

# Odd moduli, ascending, that sieve the scan's discriminants by quadratic
# residues before any square root is taken (see _square_steps).
SIEVE_MODULI = (5, 7, 9, 11, 13, 17)


@dataclass(frozen=True)
class EquationState:
    """Residual equation after absorbing ``prefix``; ``remaining`` primes left.

    Invariants: alpha > beta >= 1, gamma >= 1, gcd(alpha, beta) = 1, prefix
    strictly ascending primes >= 5.  ``prefix_product`` is prod(prefix) and
    ``floor`` the strict lower bound for the next prime, prefix[-1] (3 on an
    empty prefix, which admits the minimum, 5); both are carried from parent
    to child rather than recomputed.
    """

    prefix: tuple[int, ...]
    alpha: int
    beta: int
    gamma: int
    remaining: int
    prefix_product: int = field(init=False, repr=False, compare=False)
    floor: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.beta < 1 or self.alpha <= self.beta:
            raise ValueError(f"need alpha > beta >= 1, got ({self.alpha}, {self.beta})")
        if self.gamma < 1:
            raise ValueError(f"need gamma >= 1, got {self.gamma}")
        if gcd(self.alpha, self.beta) != 1:
            raise ValueError(f"alpha={self.alpha}, beta={self.beta} not coprime")
        if self.remaining < 1:
            raise ValueError(f"need remaining >= 1, got {self.remaining}")
        if any(p >= q for p, q in zip(self.prefix, self.prefix[1:])):
            raise ValueError(f"prefix not strictly ascending: {self.prefix}")
        object.__setattr__(self, "prefix_product", prod(self.prefix))
        object.__setattr__(self, "floor", self.prefix[-1] if self.prefix else 3)


class Pruned(NamedTuple):
    """Evidence that absorbing ``prime`` kills the branch: ``gcd`` does not
    divide gamma.

    ``alpha``/``beta`` are the pre-normalization candidates and ``gcd`` their
    common divisor, so a prune is fully reconstructible from the record.  A
    tuple, so the walk builds one per pruned candidate cheaply (through
    ``_make``, which skips the generated ``__new__``).
    """

    prime: int
    alpha: int
    beta: int
    gcd: int


def root_state(k: int) -> EquationState:
    """Initial state 3*prod(q-1) = 2*prod(q) + 2 with k primes to choose."""
    return EquationState(prefix=(), alpha=ROOT_ALPHA, beta=ROOT_BETA, gamma=ROOT_GAMMA, remaining=k)


def absorb_prime(state: EquationState, q: int) -> EquationState | Pruned:
    """Extend the prefix by q, renormalizing.  Returns Pruned exactly when
    the gcd test rejects q, and raises ValueError when the child would not be
    a valid state: no prime left, or a normalized alpha <= beta, which holds
    exactly for q <= alpha // (alpha - beta), a q the walk never offers (see
    search._next_primes).

    q must be a prime greater than state.floor (primality itself is the
    caller's obligation; structural constraints are checked here).

    The child is built without re-running EquationState's validation, because
    every other invariant follows from the parent's: g divides beta*q and
    gamma, so both stay >= 1; gcd(alpha, beta) = 1 after dividing by g; and
    the prefix stays ascending since q > state.floor.

    On every state reachable from root_state two facts hold, by induction
    over this function:
      - gamma divides 2: it starts at 2 and is only ever divided by g;
      - every prefix prime p divides beta: the new beta is beta*q/g, p and q
        divide beta*q, and g divides gamma, so no prime >= 5 divides g.
    So the gcd test already enforces the paper's second theorem (p, q | n
    forces p not dividing q - 1): a prefix prime p | q - 1 divides both
    alpha*(q - 1) and beta*q, hence g, which then cannot divide gamma.  The
    endgames need no such check either.  A remaining prime r with p | r - 1
    would make p divide gamma, since p divides every other term of the
    residual equation, and q | r - 1 reduces the two-prime equation mod q
    to gamma = 0 (mod q); neither can happen for primes >= 5.
    """
    if q < 5 or q <= state.floor:
        raise ValueError(f"next prime must exceed {state.floor} (and be >= 5), got {q}")
    a2 = state.alpha * (q - 1)
    b2 = state.beta * q
    g = gcd(a2, b2)
    if state.gamma % g:
        return Pruned._make((q, a2, b2, g))
    a3, b3, g3 = a2 // g, b2 // g, state.gamma // g
    if a3 <= b3 or state.remaining == 1:
        raise ValueError(f"no valid child: alpha={a3}, beta={b3}, remaining={state.remaining - 1}")
    child = object.__new__(EquationState)  # valid by construction: skip __post_init__
    child.__dict__.update(
        prefix=state.prefix + (q,),
        alpha=a3,
        beta=b3,
        gamma=g3,
        remaining=state.remaining - 1,
        prefix_product=state.prefix_product * q,
        floor=q,
    )
    return child


def finiteness_bound(state: EquationState, i: int, table: PrimeTable, room: int | None = None) -> int:
    """Table index of the inclusive upper bound for the next prime in any
    solution; i is the index of state.floor in ``table``.

    Scans consecutive-prime tails: if the next prime exceeded p_m, each of
    the ``remaining`` primes would be at least the corresponding entry of
    the tail after p_m, and once

        alpha * prod(tail_i - 1) > beta * prod(tail_i) + gamma

    holds the residual equation is unsatisfiable (the left side only grows
    faster).  The index m of the first p_m where that happens is returned;
    it can be i, in which case no admissible next prime exists.  All
    comparisons are exact integer arithmetic.

    With a ``room`` (the walk passes limit_bound, the budget for the product
    of the remaining primes) the same tails close the scan on the limit as
    well: the remaining primes are distinct and ascending, so a next prime
    past p_m brings at least prod(tail_i) into that product, and the scan
    also stops at the first p_m where prod(tail_i) > room.  Both tests are
    monotone in m, so the result is exactly the smaller of the uncapped
    bound and the index of the largest prime whose run of ``remaining``
    consecutive primes fits in room (i when none does).

    The tail products come from ``table.tails``, whose entry m for
    ``remaining`` primes covers the tail after primes[m], so a scan opens at
    entry i without looking the floor up and a probe is two multiplications
    and a comparison.  As the combined test is monotone in m, a scan inside
    the stored entries gallops (the unbounded search of Bentley and Yao,
    1976): it probes i, i + 1, i + 2 and i + 3 one by one, where most scans
    stop, then i + 4, i + 6, i + 10, i + 18, ..., the step doubling but
    never past the last stored entry, and bisects between the last entry
    that passed and the first that failed.  When every stored entry from i
    passes, the scan goes on linearly past the end of the lists, asking
    ``table.extend_tail`` for each next entry, so the lists reach exactly as
    far as the furthest bound of the run.
    """
    rem = state.remaining
    m1s, ps = table.tails[rem]
    alpha, beta, gamma = state.alpha, state.beta, state.gamma
    n = len(ps)
    m = i
    end = i + 4 if i + 4 < n else n
    while m < end:
        if alpha * m1s[m] > beta * ps[m] + gamma or (room is not None and ps[m] > room):
            return m
        m += 1
    if m < n:
        # Entry m - 1 passed: gallop, then bisect (live, m] once m fails.
        live, step = m - 1, 1
        while m < n:
            if alpha * m1s[m] > beta * ps[m] + gamma or (room is not None and ps[m] > room):
                while m - live > 1:
                    mid = (live + m) >> 1
                    if alpha * m1s[mid] > beta * ps[mid] + gamma or (room is not None and ps[mid] > room):
                        m = mid
                    else:
                        live = mid
                return m
            live = m
            step += step
            m += step
            if m >= n > live + 1:
                m = n - 1
        m = n
    while True:
        if m >= len(ps):
            table.extend_tail(rem)
        elif alpha * m1s[m] > beta * ps[m] + gamma or (room is not None and ps[m] > room):
            return m
        else:
            m += 1


def limit_bound(state: EquationState, limit: int) -> int:
    """Budget for the product of the remaining primes when n must stay <= limit.

    That is limit // prefix_product; finiteness_bound turns it into a bound
    on the next prime through products of consecutive primes.
    """
    b = state.prefix_product
    if limit < b:
        raise ValueError(f"limit {limit} below prefix product {b}")
    return limit // b


def one_prime_solve(state: EquationState, limit: int | None = None) -> list[int]:
    """Closed form for the last prime: q = (alpha + gamma) / (alpha - beta).

    Returns [q] when that value is integral, prime, beyond state.floor, and
    (if limit is given) keeps n <= limit.
    """
    if state.remaining != 1:
        raise ValueError(f"one_prime_solve needs remaining == 1, got {state.remaining}")
    num = state.alpha + state.gamma
    delta = state.alpha - state.beta
    if num % delta:
        return []
    q = num // delta
    if q <= state.floor:
        return []
    if limit is not None and state.prefix_product * q > limit:
        return []
    if not is_prime(q):
        return []
    return [q]


def two_prime_args(state: EquationState) -> tuple[int, int, int, int, int]:
    """two_prime_solve's leading arguments for a state with two primes left:
    (alpha, beta, gamma, floor, prefix_product)."""
    if state.remaining != 2:
        raise ValueError(f"two_prime_solve needs remaining == 2, got {state.remaining}")
    return state.alpha, state.beta, state.gamma, state.floor, state.prefix_product


def residue_closes(alpha: int, beta: int, gamma: int, floor: int, prefix_product: int, limit: int) -> bool:
    """Whether the residue bound puts every pair of a two-prime endgame over
    the limit: two_prime_solve's coefficients, floor and prefix product.

    Modulo alpha the equation alpha(q-1)(r-1) = beta*q*r + gamma reads
    beta*q*r + gamma = 0, and beta is invertible there as gcd(alpha, beta)
    = 1, so every pair, prime or not, has q*r = c = -gamma/beta (mod alpha);
    floor < q < r gives q*r > floor**2.  So no pair keeps n = prefix_product
    * q*r <= limit when the least integer >= floor**2 congruent to c, times
    prefix_product, exceeds the limit.  (This is two_prime_solve's sum-side
    class read on the product: s is an integer exactly when q*r lies in c's
    class.)  This is the one place a child with two primes left closes on
    the limit: the limited walk asks it before it counts the child as a
    node, and a child it closes makes no two_prime_solve call (see
    search._solve_last_level).
    """
    least = floor * floor
    least += (-gamma * pow(beta, -1, alpha) - least) % alpha
    return prefix_product * least > limit


def two_prime_solve(
    alpha: int,
    beta: int,
    gamma: int,
    floor: int,
    prefix_product: int,
    limit: int | None = None,
    counters=None,
    trace: list | None = None,
    *,
    strategy: str | None = None,
) -> list[tuple[int, int]]:
    """All prime pairs floor < q < r solving alpha(q-1)(r-1) = beta*q*r + gamma.

    The two-prime endgame on a state's coefficients (alpha > beta >= 1,
    gcd(alpha, beta) = 1, gamma >= 1), its floor and the product of its
    prefix, so the walk can solve a child without building it;
    two_prime_args(state) gives them for a state.  The floor must be at
    least 3, as on every walk state (the empty prefix's floor is 3): every
    q > floor is then at least 4, so a q divisible by 2 or 3 is composite,
    and the scan below skips it.  A smaller floor raises ValueError for
    either source, since a scan past floor 2 would lose q = 3 unseen.  A
    factoring failure raises factorize's FactoringError, which names the
    target; callers name the branch.

    With delta = alpha - beta the equation is equivalent to

        (delta*q - alpha)(delta*r - alpha) = alpha*beta + gamma*delta = target,

    and both left factors are congruent to -alpha modulo delta, which cuts
    the divisors to try.  The endgame finds the divisors f1 <= sqrt(target)
    of the target and maps admissible ones back to (q, r) = ((f1 + alpha)
    / delta, (f2 + alpha) / delta) with f2 = target / f1.  Negative factor
    pairs of the target need no consideration: delta*q - alpha < 0 forces a
    negative partner r.

    When a limit is given, each pair must keep n = prefix_product*q*r <=
    limit; the limit only drops pairs (the "limit" verdict below) and closes
    no endgame before its divisors are sought.  The limited walk closes a
    child on the limit before it becomes an endgame call (see
    residue_closes).

    The divisors come from one of two sources.  "factor" factors the target
    and walks all its divisors.  "scan" finds every divisor f1 = delta*q -
    alpha with q an integer prime to 6 in lo <= q <= hi, where lo > floor
    keeps f1 >= 1 and hi = (rt + alpha) // delta, rt = isqrt(target), keeps
    f1 <= sqrt(target).  The scan works from both ends of that range, split at
    mid = (isqrt(target // delta) + alpha) // delta, which is at most hi as
    delta >= 1, raised to at least lo - 1 (so the range is empty when hi <
    lo), where f1 is about sqrt(target / delta):

      - each q in [lo, mid] prime to 6 is tried: does f1 divide the
        target?  The q = 1 and the q = 5 (mod 6) are two runs of f1
        stepped by 6*delta, whose divisors are merged.
      - each q in (mid, hi] is found through its sum s = q + r.  The
        equation reads delta*q*r = alpha*s + gamma - alpha, so q*r is an
        integer exactly when s = (alpha - gamma) / alpha (mod delta), which
        exists since gcd(alpha, delta) = gcd(alpha, beta) = 1.  Then q and r
        are the roots of x*x - s*x + q*r, so the pair exists exactly when
        s*s - 4*q*r is a square d*d, and q = (s - d) / 2.  No parity test is
        needed: s*s - d*d = 4*q*r forces s = d (mod 2).  A root q
        divisible by 2 or 3 is dropped before it becomes a divisor.

    Why the sums cover (mid, hi] exactly: on f1 > 0 the sum of a real pair
    is S(q) = q + (target / f1 + alpha) / delta, with dS/dq = 1 - target /
    f1**2 < 0 for f1 < sqrt(target).  So S is strictly decreasing on q <= hi,
    and the q in (mid, hi] are exactly the smaller roots of the integral s
    in [ceil(S(hi)), floor(S(mid + 1))], each at most once; there every
    discriminant is >= 0 and no q needs a range check.  The s are stepped
    by delta from the first one in the class, and the discriminant is a
    quadratic in the step index: _square_steps first drops the steps where
    it is a non-square modulo a few small odd moduli, and gives the survivors
    the exact root test.

    Cost: [lo, mid] holds about sqrt(target / delta) / delta q, of which
    the first side tries the third prime to 6, and the second side takes
    about as many sum steps as [lo, mid] holds q, so one scan takes about
    (4/3)*sqrt(target) / delta**1.5 steps; when delta**3 > target that is
    at most about 2 steps.  By default the endgame scans when the steps it
    would take, the count of q prime to 6 in [lo, mid] plus the
    (floor(S(mid + 1)) - ceil(S(hi))) // delta + 1 sum steps, are at most
    target**(1/4), Brent rho's iteration count on a worst-case split, and
    factors the target otherwise.  The count is never negative (mid >= lo -
    1, and S falls on (mid, hi], so s_hi >= s_lo - 1), and for steps >= 0
    the test steps*steps <= rt holds exactly when steps**4 <= target, that
    is when steps <= floor(target**(1/4)).
    ``strategy`` forces one source (tests cross-check the two with it).  The
    rule prices a tried q like a sieved sum step.  On the large targets of a
    k = 7 walk a tried q costs about 2.5 to 3 sum steps, but the sum side
    takes about 3 steps per tried q, so the two sides cost about alike.  An
    endgame with no scan step at all (no q prime to 6 in [lo, mid] and no
    sum of the class in [s_lo, s_hi]) returns right after its bounds, as
    does any scan that meets no divisor; on a limited walk the residue
    bound closes most such endgames before their bounds.  The pairs come
    out by ascending q with no sort of the pairs: divisors() ascends, and
    the scan sorts the few divisors its two runs over [lo, mid] meet, then
    meets (mid, hi] by descending sum.

    ``counters`` (optional) receives the congruence prunes and which source
    ran; ``trace`` (optional) collects (f1, f2, q, r, verdict) tuples for
    every divisor pair seen.  Verdicts: "congruence" (f1 outside
    the residue class), "floor" (q <= floor), "ordering" (q >= r), "limit",
    "q_composite", "r_composite" and "accepted".  A scan sees only divisors
    in the residue class with q in range and prime to 6, so its trace is the
    factor trace without the "congruence" and "floor" entries and those
    with q > hi or q divisible by 2 or 3, and it ticks no prune_congruence.
    """
    if floor < 3:
        raise ValueError(f"need floor >= 3, got {floor}")
    delta = alpha - beta
    target = alpha * beta + gamma * delta
    b = prefix_product
    rt = isqrt(target)
    # f1 >= 1 and q > floor bound q from below, f1 <= sqrt(target) from
    # above.  (Plain comparisons rather than max/min: most calls end right
    # after these.)
    lo = alpha // delta + 1
    if lo <= floor:
        lo = floor + 1
    hi = (rt + alpha) // delta
    # q in [lo, mid] prime to 6 are tried one by one, q in (mid, hi] found
    # through their sums q + r, which fill [s_lo, s_hi] (see above).
    mid = (isqrt(target // delta) + alpha) // delta
    if mid < lo:
        mid = lo - 1
    s_lo, s_hi = 1, 0
    if mid < hi:
        f_hi = delta * hi - alpha
        f_mid = delta * (mid + 1) - alpha
        s_lo = hi - (-(target + alpha * f_hi) // (delta * f_hi))
        s_hi = mid + 1 + (target + alpha * f_mid) // (delta * f_mid)
    if strategy is None:
        # Brent rho needs about target**(1/4) iterations on a worst-case
        # split, so taking at most that many steps is never dearer.
        steps = _prime_to_6(lo, mid) + (s_hi - s_lo) // delta + 1
        strategy = "scan" if steps * steps <= rt else "factor"
    if strategy == "scan":
        # Only q prime to 6: q > floor >= 3, so any other q is composite.
        divisors = []
        if mid >= lo:
            # q = 1 and q = 5 (mod 6), merged so the divisors ascend
            stop = delta * mid - alpha + 1
            for q0 in (lo + (1 - lo) % 6, lo + (5 - lo) % 6):
                divisors += [
                    f1 for f1 in range(delta * q0 - alpha, stop, 6 * delta) if not target % f1]
            divisors.sort()
        if s_lo <= s_hi:
            # The sums in the class that makes q*r = (gamma - alpha + alpha*s) / delta
            # integral, stepped as s = s0 + delta*j: then q and r are the roots
            # of x*x - s*x + q*r, and (r - q)**2 = c2*j*j + c1*j + c0.
            s0 = s_lo + ((alpha - gamma) * pow(alpha, -1, delta) - s_lo) % delta
            if s0 <= s_hi:
                c2 = delta * delta
                c1 = 2 * delta * s0 - 4 * alpha
                c0 = s0 * s0 - 4 * ((gamma - alpha + alpha * s0) // delta)
                # descending s gives ascending q
                for j in reversed(_square_steps(delta, c1, c0, (s_hi - s0) // delta + 1)):
                    q = (s0 + delta * j - isqrt((c2 * j + c1) * j + c0)) // 2
                    if q % 2 and q % 3:
                        divisors.append(delta * q - alpha)
        if counters is not None:
            counters.endgame_scan += 1
        if not divisors:
            # nothing to filter or trace
            return []
    elif strategy == "factor":
        divisors = factorize(target).divisors()
        if counters is not None:
            counters.endgame_factor += 1
    else:
        raise ValueError(f"strategy must be 'scan' or 'factor', got {strategy!r}")

    residue = (-alpha) % delta
    out = []
    for f1 in divisors:
        if f1 * f1 > target:
            break
        f2 = target // f1
        if f1 % delta != residue:
            if counters is not None:
                counters.prune_congruence += 1
            if trace is not None:
                trace.append((f1, f2, None, None, "congruence"))
            continue
        q = (f1 + alpha) // delta
        r = (f2 + alpha) // delta
        verdict = "accepted"
        if q <= floor:
            verdict = "floor"
        elif q >= r:
            verdict = "ordering"
        elif limit is not None and b * q * r > limit:
            verdict = "limit"
        elif not is_prime(q):
            verdict = "q_composite"
        elif not is_prime(r):
            verdict = "r_composite"
        if trace is not None:
            trace.append((f1, f2, q, r, verdict))
        if verdict == "accepted":
            out.append((q, r))
    return out


def _prime_to_6(lo: int, hi: int) -> int:
    """How many q in [lo, hi] are prime to 6, for 1 <= lo <= hi + 1 (0 when
    hi = lo - 1): (n + 1) // 6 + (n + 5) // 6 of them lie in [1, n]."""
    return (hi + 1) // 6 + (hi + 5) // 6 - lo // 6 - (lo + 4) // 6


@functools.cache
def _square_pattern(m: int, e: int) -> bytes:
    """Byte x is 1 when x*x + e is a square modulo m, for x in range(m)."""
    squares = {x * x % m for x in range(m)}
    return bytes((x * x + e) % m in squares for x in range(m))


def _square_steps(delta: int, c1: int, c0: int, n: int) -> list[int]:
    """The j in range(n), ascending, where v = (delta**2 * j + c1) * j + c0
    is a perfect square; v must be >= 0 there.

    Every candidate gets the exact test isqrt(v)**2 == v, but first the j
    whose v is a non-square modulo one of SIEVE_MODULI are dropped, since a
    perfect square is a square modulo anything.  For an odd m prime to delta,

        v = delta**2 * ((j + h)**2 + e)  (mod m),
        h = c1 / (2 * delta**2),  e = c0 / delta**2 - h*h  (mod m),

    and delta**2 is an invertible square, so v is a square modulo m exactly
    when (j + h)**2 + e is.  Which x = j + h pass depends on (m, e) alone:
    _square_pattern caches it, and the j pass where the pattern, repeated
    from offset h, has a 1.  The moduli share one mask, an int holding one
    byte per j.  A modulus that shares a factor with delta is skipped, as
    delta**2 has no inverse there, and the sieve stops at the first modulus
    larger than the candidates left, where it costs about as much as the
    roots it saves.
    """
    mask = -1
    left = n
    for m in SIEVE_MODULI:
        if m > left:
            break
        if gcd(m, delta) != 1:
            continue
        inv = pow(delta, -2, m)
        h = c1 * inv * ((m + 1) // 2) % m
        e = (c0 * inv - h * h) % m
        mask &= int.from_bytes((_square_pattern(m, e) * ((n + h) // m + 1))[h : h + n], "big")
        left = mask.bit_count()
    candidates = range(n) if mask == -1 else compress(range(n), mask.to_bytes(n, "big"))
    c2 = delta * delta
    return [j for j in candidates if isqrt(v := (c2 * j + c1) * j + c0) ** 2 == v]
