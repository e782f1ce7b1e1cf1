//! Offline stand-in for `rand_chacha` 0.3: the ChaCha8 generator.
//!
//! Output order matches rand_chacha: a 64-bit block counter in state words
//! 12–13, a zero stream id in words 14–15, four blocks buffered per refill,
//! and `BlockRng`'s rule for a `next_u64` that straddles a refill.

use rand::{RngCore, SeedableRng};

const BLOCK_WORDS: usize = 16;
/// rand_chacha refills four blocks at a time.
const BUFFER_WORDS: usize = 4 * BLOCK_WORDS;
/// "expand 32-byte k"
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// ChaCha with 8 rounds, seeded with a 32-byte key.
#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    counter: u64,
    buffer: [u32; BUFFER_WORDS],
    index: usize,
}

fn quarter_round(s: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

fn block(key: &[u32; 8], counter: u64) -> [u32; BLOCK_WORDS] {
    let mut input = [0u32; BLOCK_WORDS];
    input[..4].copy_from_slice(&SIGMA);
    input[4..12].copy_from_slice(key);
    input[12] = counter as u32;
    input[13] = (counter >> 32) as u32;
    let mut s = input;
    for _ in 0..4 {
        quarter_round(&mut s, 0, 4, 8, 12);
        quarter_round(&mut s, 1, 5, 9, 13);
        quarter_round(&mut s, 2, 6, 10, 14);
        quarter_round(&mut s, 3, 7, 11, 15);
        quarter_round(&mut s, 0, 5, 10, 15);
        quarter_round(&mut s, 1, 6, 11, 12);
        quarter_round(&mut s, 2, 7, 8, 13);
        quarter_round(&mut s, 3, 4, 9, 14);
    }
    for (word, init) in s.iter_mut().zip(input) {
        *word = word.wrapping_add(init);
    }
    s
}

impl ChaCha8Rng {
    fn refill(&mut self, index: usize) {
        for (i, chunk) in self.buffer.chunks_exact_mut(BLOCK_WORDS).enumerate() {
            chunk.copy_from_slice(&block(&self.key, self.counter.wrapping_add(i as u64)));
        }
        self.counter = self.counter.wrapping_add(4);
        self.index = index;
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> ChaCha8Rng {
        let mut key = [0u32; 8];
        for (word, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        ChaCha8Rng {
            key,
            counter: 0,
            buffer: [0; BUFFER_WORDS],
            index: BUFFER_WORDS,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUFFER_WORDS {
            self.refill(0);
        }
        let word = self.buffer[self.index];
        self.index += 1;
        word
    }

    fn next_u64(&mut self) -> u64 {
        let index = self.index;
        if index < BUFFER_WORDS - 1 {
            self.index += 2;
            u64::from(self.buffer[index + 1]) << 32 | u64::from(self.buffer[index])
        } else if index >= BUFFER_WORDS {
            self.refill(2);
            u64::from(self.buffer[1]) << 32 | u64::from(self.buffer[0])
        } else {
            // One word left: it is the low half, the next buffer's first
            // word the high half.
            let low = u64::from(self.buffer[BUFFER_WORDS - 1]);
            self.refill(1);
            u64::from(self.buffer[0]) << 32 | low
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ChaCha8 keystream for an all-zero key and nonce, first block, from
    /// the ChaCha reference test vectors (eSTREAM, 8 rounds, 256-bit key).
    #[test]
    fn zero_key_first_block_matches_reference_vector() {
        let mut rng = ChaCha8Rng::from_seed([0; 32]);
        let mut bytes = Vec::new();
        for _ in 0..8 {
            bytes.extend_from_slice(&rng.next_u32().to_le_bytes());
        }
        let expect = [
            0x3e, 0x00, 0xef, 0x2f, 0x89, 0x5f, 0x40, 0xd6, 0x7f, 0x5b, 0xb8, 0xe8, 0x1f, 0x09,
            0xa5, 0xa1, 0x2c, 0x84, 0x0e, 0xc3, 0xce, 0x9a, 0x7f, 0x3b, 0x18, 0x1b, 0xe1, 0x88,
            0xef, 0x71, 0x1a, 0x1e,
        ];
        assert_eq!(bytes, expect);
    }

    #[test]
    fn u64_straddling_a_refill_keeps_word_order() {
        let mut words = ChaCha8Rng::seed_from_u64(9);
        let mut mixed = words.clone();
        let w: Vec<u32> = (0..BUFFER_WORDS + 2).map(|_| words.next_u32()).collect();
        for _ in 0..BUFFER_WORDS - 1 {
            mixed.next_u32();
        }
        let straddle = mixed.next_u64();
        assert_eq!(straddle as u32, w[BUFFER_WORDS - 1]);
        assert_eq!((straddle >> 32) as u32, w[BUFFER_WORDS]);
        assert_eq!(mixed.next_u32(), w[BUFFER_WORDS + 1]);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(46);
        let mut b = ChaCha8Rng::seed_from_u64(46);
        assert!((0..1000).all(|_| a.next_u64() == b.next_u64()));
        let mut c = ChaCha8Rng::seed_from_u64(47);
        assert!((0..4).any(|_| a.next_u64() != c.next_u64()));
    }
}
