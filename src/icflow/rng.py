"""np.random.default_rng(seed).uniform(lo, hi, size) bit for bit, without numpy.random
(6.5 MB with the secrets, hmac and _hashlib it loads): numpy's SeedSequence seeds
PCG64's XSL-RR 128/64 stream (O'Neill, HMC-CS-2014-0905), draw i is lo + (hi - lo)
(next_i >> 11) 2^-53, and a seed's draws stay fixed where numpy's Generator changes."""

from numbers import Integral

from .errors import ParameterError

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hashmix(value, const, mult=0x931E8875):
    """SeedSequence's hash of one word; const, a one-item list, is its running constant."""
    value ^= const[0]
    const[0] = const[0] * mult & _M32
    value = value * const[0] & _M32
    return value ^ value >> 16


def _seed_words(seed):
    """SeedSequence(seed).generate_state(8), PCG64's 128-bit seed and stream."""
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = [0x43B0D7E5]
    pool = [_hashmix(word, const) for word in (entropy + [0] * 4)[:4]]
    # each pool word into the others, then each further seed word into all
    for src in range(max(4, len(entropy))):
        for dst in range(4):
            if src != dst:
                word = _hashmix(pool[src] if src < 4 else entropy[src], const)
                mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * word) & _M32
                pool[dst] = mixed ^ mixed >> 16
    const = [0x8B51F9DD]
    return [_hashmix(pool[i % 4], const, 0x58F38DED) for i in range(8)]


def uniform(seed: int, lo: float, hi: float, size: int) -> list[float]:
    """The first size draws of np.random.default_rng(seed).uniform(lo, hi)."""
    if not isinstance(seed, Integral) or isinstance(seed, bool) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    w, mult = _seed_words(int(seed)), 0x2360ED051FC65DA44385DF649FCCF645
    inc = ((w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 | 1) & _M128
    state = ((inc + (w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2])) * mult + inc) & _M128
    draws = []
    for _ in range(size):
        state = (state * mult + inc) & _M128
        folded, rot = (state >> 64 ^ state) & _M64, state >> 122
        bits = (folded >> rot | folded << (64 - rot)) & _M64  # rotate right by rot
        draws.append(lo + (hi - lo) * ((bits >> 11) * 2.0**-53))
    return draws
