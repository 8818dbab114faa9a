//! Offline stand-in for `rand_chacha`: `ChaCha8Rng`, the one generator this
//! repository seeds. The ChaCha block function with 8 rounds, a 64-bit
//! block counter and rand_core's word-buffer read order.

use rand::{RngCore, SeedableRng};

const BLOCK_WORDS: usize = 16;

#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    counter: u64,
    block: [u32; BLOCK_WORDS],
    /// Next unread word of `block`; `BLOCK_WORDS` means exhausted.
    index: usize,
}

fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut input = [0u32; 16];
        input[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        input[4..12].copy_from_slice(&self.key);
        input[12] = self.counter as u32;
        input[13] = (self.counter >> 32) as u32;
        // Words 14 and 15 hold the stream id, always 0 here.
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
        for (out, inp) in s.iter_mut().zip(input) {
            *out = out.wrapping_add(inp);
        }
        self.block = s;
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        Self {
            key,
            counter: 0,
            block: [0; BLOCK_WORDS],
            index: BLOCK_WORDS,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= BLOCK_WORDS {
            self.refill();
        }
        let w = self.block[self.index];
        self.index += 1;
        w
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 7539 §2.3.2 uses 20 rounds; with 8 rounds the only published
    /// vectors are for an all-zero key. First block of ChaCha8, zero key,
    /// zero nonce (from the eSTREAM reference set).
    #[test]
    fn zero_key_first_words_match_the_reference_stream() {
        let mut rng = ChaCha8Rng::from_seed([0; 32]);
        let first: Vec<u8> = (0..2).flat_map(|_| rng.next_u32().to_le_bytes()).collect();
        assert_eq!(first, [0x3e, 0x00, 0xef, 0x2f, 0x89, 0x5f, 0x40, 0xd6]);
    }

    #[test]
    fn same_seed_same_stream_and_different_seed_differs() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        let mut c = ChaCha8Rng::seed_from_u64(8);
        let xs: Vec<u64> = (0..40).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..40).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..40).map(|_| c.next_u64()).collect::<Vec<_>>());
    }
}
