//! Reference answers for the indexed SNB short reads (SQ1, SQ2, SQ3, SQ4,
//! SQ7), built from the generated inputs: a key→rows multiset per table.

use crate::oracle::{row_hash, row_hash_parts, Checksum};
use rowstore::{Row, Value};

/// The short reads the serving workloads submit.
pub const SERVE_QUERIES: [usize; 5] = [1, 2, 3, 4, 7];

pub struct SnbOracle {
    persons: Vec<Row>,
    edges: Vec<Row>,
    by_src: Vec<Vec<u32>>,
}

impl SnbOracle {
    /// `persons` must hold ids `0..n` in order, as the generator emits.
    pub fn new(persons: &[Row], edges: &[Row]) -> SnbOracle {
        let mut by_src = vec![Vec::new(); persons.len()];
        for (i, e) in edges.iter().enumerate() {
            by_src[e[0].as_i64().expect("edge_source") as usize].push(i as u32);
        }
        for (i, p) in persons.iter().enumerate() {
            assert_eq!(p[0], Value::Int64(i as i64), "person ids are dense");
        }
        SnbOracle {
            persons: persons.to_vec(),
            edges: edges.to_vec(),
            by_src,
        }
    }

    fn out_edges(&self, id: i64) -> impl Iterator<Item = &Row> {
        self.by_src[id as usize]
            .iter()
            .map(|&i| &self.edges[i as usize])
    }

    /// Check one result of SQ`q` for person `id`, given the hashes of
    /// its rows.
    pub fn check(&self, q: usize, id: i64, hashes: &[u64]) -> Result<(), String> {
        let mut got = Checksum::default();
        hashes.iter().for_each(|&h| got.add_hash(h));
        let mut want = Checksum::default();
        match q {
            1 => want.add_hash(row_hash(&self.persons[id as usize])),
            2 => {
                // LIMIT 10 without ORDER BY: any 10 of the person's edges.
                let mut pool: Vec<u64> = self.out_edges(id).map(|e| row_hash(e)).collect();
                let expect = pool.len().min(10);
                if hashes.len() != expect {
                    return Err(format!("SQ2({id}): {} rows, want {expect}", hashes.len()));
                }
                for h in hashes {
                    match pool.iter().position(|p| p == h) {
                        Some(i) => {
                            pool.swap_remove(i);
                        }
                        None => return Err(format!("SQ2({id}): a row is not an edge of {id}")),
                    }
                }
                return Ok(());
            }
            3 => {
                for e in self.out_edges(id) {
                    let dest = &self.persons[e[1].as_i64().expect("edge_dest") as usize];
                    want.add_hash(row_hash_parts(&[e, dest]));
                }
            }
            4 => {
                for e in self.out_edges(id) {
                    want.add_hash(row_hash(&e[2..3]));
                }
            }
            7 => {
                for e in self.out_edges(id) {
                    for e2 in self.out_edges(e[1].as_i64().expect("edge_dest")) {
                        want.add_hash(row_hash_parts(&[e, e2]));
                    }
                }
            }
            other => return Err(format!("SQ{other} has no oracle")),
        }
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "SQ{q}({id}): {} rows / checksum {:x}, want {} rows / {:x}",
                got.rows, got.sum, want.rows, want.sum
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_results_by_row_hash() {
        let data = workloads::snb::generate(workloads::snb::SnbConfig {
            persons: 50,
            avg_degree: 4,
            theta: 0.8,
            seed: 3,
        });
        let oracle = SnbOracle::new(&data.persons, &data.edges);
        let id = data.edges[0][0].as_i64().unwrap();
        let mine: Vec<u64> = data
            .edges
            .iter()
            .filter(|e| e[0] == Value::Int64(id))
            .map(|e| row_hash(&e[2..3]))
            .collect();
        assert!(oracle.check(4, id, &mine).is_ok());
        assert!(oracle.check(4, id, &mine[1..]).is_err(), "a missing row");
        assert!(oracle
            .check(1, id, &[row_hash(&data.persons[id as usize])])
            .is_ok());
        assert!(oracle
            .check(1, id, &[row_hash(&data.persons[0][..1])])
            .is_err());
    }
}
