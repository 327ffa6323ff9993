//! Offline, dependency-free stand-in for the subset of the `rand` 0.8 API
//! this workspace uses.
//!
//! The build environment has no network access to crates.io, so the real
//! `rand`/`rand_chacha` crates cannot be fetched. This crate reimplements
//! exactly the surface the workspace exercises, following the published
//! `rand` 0.8.5 / `rand_chacha` 0.3 algorithms step for step so streams
//! stay reproducible:
//!
//! - [`rngs::StdRng`]: ChaCha with 12 rounds, 64-bit block counter, 4-block
//!   output buffer, and the `BlockRng` word-consumption order (including
//!   its buffer-straddling `next_u64` path).
//! - [`SeedableRng::seed_from_u64`]: the PCG32-based seed expansion.
//! - `Rng::gen::<f64>()`: 53-bit mantissa construction from `next_u64`.
//! - `Rng::gen_range(low..high)` for integers: widening-multiply with the
//!   `sample_single` rejection zone.
//!
//! Only determinism and distribution quality are load-bearing for the
//! simulator; cryptographic properties are not relied upon anywhere.

#![forbid(unsafe_code)]

/// Low-level source of random 32/64-bit words.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction of a generator from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// Raw seed type (a byte array).
    type Seed: AsMut<[u8]> + Default;

    /// Builds the generator from a full-entropy seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed via the PCG32 output function,
    /// matching `rand` 0.8's default `seed_from_u64`.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let word = xorshifted.rotate_right(rot).to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&word[..n]);
        }
        Self::from_seed(seed)
    }
}

/// Types sampled by `Rng::gen` (the `Standard` distribution subset).
pub trait StandardSample {
    /// Draws one value from the standard distribution.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl StandardSample for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

impl StandardSample for f64 {
    /// `Open01`-style uniform in `[0, 1)` with 53 random mantissa bits,
    /// exactly as `rand`'s `Standard` does for `f64`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        let scale = 1.0 / ((1u64 << 53) as f64);
        (rng.next_u64() >> 11) as f64 * scale
    }
}

/// Half-open ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a uniform value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_64 {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for core::ops::Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "cannot sample empty range");
                let low = self.start as u64;
                let range = (self.end as u64).wrapping_sub(low);
                // rand 0.8 `sample_single`: widening multiply with the
                // fast conservative rejection zone.
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = rng.next_u64();
                    let wide = u128::from(v) * u128::from(range);
                    let hi = (wide >> 64) as u64;
                    let lo = wide as u64;
                    if lo <= zone {
                        return low.wrapping_add(hi) as $ty;
                    }
                }
            }
        }
    )*};
}

impl_sample_range_64!(u64, usize, i64);

impl SampleRange<u32> for core::ops::Range<u32> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> u32 {
        assert!(self.start < self.end, "cannot sample empty range");
        let low = self.start;
        let range = self.end.wrapping_sub(low);
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let v = rng.next_u32();
            let wide = u64::from(v) * u64::from(range);
            let hi = (wide >> 32) as u32;
            let lo = wide as u32;
            if lo <= zone {
                return low.wrapping_add(hi);
            }
        }
    }
}

/// Convenience sampling methods, blanket-implemented for every source.
pub trait Rng: RngCore {
    /// Draws a value of type `T` from the standard distribution.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a uniform value from `range` (half-open).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    const BUF_WORDS: usize = 64; // four 16-word ChaCha blocks

    /// The `rand` 0.8 standard generator: ChaCha with 12 rounds.
    ///
    /// Matches `rand_chacha::ChaCha12Rng` wrapped in `BlockRng`: output is
    /// produced four blocks at a time with a 64-bit little-endian block
    /// counter starting at zero and a zero stream id.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        key: [u32; 8],
        counter: u64,
        buf: [u32; BUF_WORDS],
        index: usize,
    }

    impl StdRng {
        fn refill(&mut self) {
            for block in 0..4 {
                let out = &mut self.buf[block * 16..(block + 1) * 16];
                chacha12_block(&self.key, self.counter + block as u64, out);
            }
            self.counter = self.counter.wrapping_add(4);
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> StdRng {
            let mut key = [0u32; 8];
            for (word, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
                *word = u32::from_le_bytes(
                    bytes.try_into().expect("chunks_exact yields 4-byte slices"),
                );
            }
            StdRng {
                key,
                counter: 0,
                buf: [0; BUF_WORDS],
                // Start exhausted so the first draw generates block 0.
                index: BUF_WORDS,
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            if self.index >= BUF_WORDS {
                self.refill();
                self.index = 0;
            }
            let value = self.buf[self.index];
            self.index += 1;
            value
        }

        /// `BlockRng::next_u64` semantics, including the case where the
        /// two halves straddle a buffer refill.
        fn next_u64(&mut self) -> u64 {
            let index = self.index;
            if index < BUF_WORDS - 1 {
                self.index += 2;
                (u64::from(self.buf[index + 1]) << 32) | u64::from(self.buf[index])
            } else if index >= BUF_WORDS {
                self.refill();
                self.index = 2;
                (u64::from(self.buf[1]) << 32) | u64::from(self.buf[0])
            } else {
                let low = u64::from(self.buf[BUF_WORDS - 1]);
                self.refill();
                self.index = 1;
                (u64::from(self.buf[0]) << 32) | low
            }
        }
    }

    #[inline]
    fn quarter_round(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(16);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(12);
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(8);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(7);
    }

    fn chacha12_block(key: &[u32; 8], counter: u64, out: &mut [u32]) {
        let mut x = [0u32; 16];
        x[0] = 0x6170_7865;
        x[1] = 0x3320_646e;
        x[2] = 0x7962_2d32;
        x[3] = 0x6b20_6574;
        x[4..12].copy_from_slice(key);
        x[12] = counter as u32;
        x[13] = (counter >> 32) as u32;
        // x[14], x[15]: stream id, zero for seed_from_u64.
        let initial = x;
        for _ in 0..6 {
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for (o, (w, i)) in out.iter_mut().zip(x.iter().zip(initial.iter())) {
            *o = w.wrapping_add(*i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn f64_samples_are_unit_interval_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_range_hits_all_buckets_uniformly() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[rng.gen_range(0..7usize)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn interleaving_u32_and_u64_matches_block_rng_word_order() {
        // Consume an odd number of u32s so the next u64 straddles words;
        // BlockRng reads (low, high) little-endian from consecutive words.
        let mut words = StdRng::seed_from_u64(5);
        let mut mixed = StdRng::seed_from_u64(5);
        let w: Vec<u32> = (0..4).map(|_| words.next_u32()).collect();
        assert_eq!(mixed.next_u32(), w[0]);
        let x = mixed.next_u64();
        assert_eq!(x as u32, w[1]);
        assert_eq!((x >> 32) as u32, w[2]);
    }

    #[test]
    fn next_u64_straddling_refill_keeps_order() {
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        // Leave exactly one word in `a`'s buffer.
        for _ in 0..63 {
            a.next_u32();
        }
        let straddle = a.next_u64();
        for _ in 0..63 {
            b.next_u32();
        }
        let last = u64::from(b.next_u32());
        let first_of_next = u64::from(b.next_u32());
        assert_eq!(straddle, (first_of_next << 32) | last);
    }

    #[test]
    fn seed_expansion_fills_all_words() {
        // PCG expansion must not leave the seed constant across inputs.
        let a = StdRng::seed_from_u64(0);
        let b = StdRng::seed_from_u64(1);
        let mut a = a;
        let mut b = b;
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
