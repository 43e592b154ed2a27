//! Result checksums for the correctness oracles: a row hash over a
//! canonical encoding of its values, and an order-independent multiset
//! checksum (count plus wrapping sum of mixed row hashes).

use rowstore::{Row, Value};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn hash_value(h: u64, v: &Value) -> u64 {
    match v {
        Value::Null => fnv(h, &[0]),
        Value::Int32(x) => fnv(fnv(h, &[1]), &x.to_le_bytes()),
        Value::Int64(x) => fnv(fnv(h, &[2]), &x.to_le_bytes()),
        Value::Float64(x) => fnv(fnv(h, &[3]), &x.to_bits().to_le_bytes()),
        Value::Bool(x) => fnv(h, &[4, u8::from(*x)]),
        Value::Utf8(s) => fnv(
            fnv(fnv(h, &[5]), &(s.len() as u64).to_le_bytes()),
            s.as_bytes(),
        ),
    }
}

/// Hash of the concatenation of `parts` (a join output row is its left
/// row followed by its right row).
pub fn row_hash_parts(parts: &[&[Value]]) -> u64 {
    let mut h = FNV_OFFSET;
    for part in parts {
        for v in *part {
            h = hash_value(h, v);
        }
    }
    splitmix(h)
}

pub fn row_hash(row: &[Value]) -> u64 {
    row_hash_parts(&[row])
}

/// Order-independent multiset checksum of a result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checksum {
    pub rows: u64,
    pub sum: u64,
}

impl Checksum {
    pub fn add_hash(&mut self, h: u64) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
    }

    pub fn of(rows: &[Row]) -> Checksum {
        let mut c = Checksum::default();
        for r in rows {
            c.add_hash(row_hash(r));
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_ignores_order_but_not_content() {
        let a = vec![Value::Int64(1), Value::Utf8("x".into())];
        let b = vec![Value::Int64(2), Value::Null];
        let one = Checksum::of(&[a.clone(), b.clone()]);
        assert_eq!(one, Checksum::of(&[b.clone(), a.clone()]));
        assert_ne!(one, Checksum::of(&[a.clone(), a.clone()]));
        assert_eq!(
            row_hash_parts(&[&a[..1], &a[1..]]),
            row_hash(&a),
            "a split row hashes like the whole row"
        );
    }
}
