//! Seeded violation: the unit size re-stated as a literal next to
//! `bandwidth` instead of `UNIT_WORDS`.

pub struct Node {
    bandwidth: u32,
}

impl Node {
    pub fn cap(&self) -> u32 {
        8 * self.bandwidth
    }

    pub fn cap_words(&self) -> u64 {
        u64::from(self.bandwidth) * 8
    }
}
