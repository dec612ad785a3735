//! Committed expected outputs: the priced cost table (every float as its
//! IEEE-754 bits) and per-seed digests of the serve workloads' reports.

use afsb_rt::json::{obj, Json};
use afsb_seq::samples::SampleId;
use afsb_serve::server::{CostTable, ShapeCost};
use afsb_simarch::Platform;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The seed the cost-table fixture was priced with. Pricing does not
/// depend on it (the seed only draws the model's weights, never a
/// cost), so every seed's table must equal this one bit for bit.
pub const FIXTURE_SEED: u64 = 17;

fn dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixture")
}

pub fn cost_table_path() -> PathBuf {
    dir().join("cost_table.json")
}

pub fn digests_path() -> PathBuf {
    dir().join("digests.json")
}

fn bits(x: f64) -> Json {
    Json::from(format!("{:#018x}", x.to_bits()))
}

fn parse_bits(v: &Json, what: &str) -> Result<f64, String> {
    let s = v
        .as_str()
        .ok_or(format!("{what}: expected a bits string"))?;
    let hex = s
        .strip_prefix("0x")
        .ok_or(format!("{what}: {s:?} lacks 0x"))?;
    u64::from_str_radix(hex, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("{what}: {s:?}: {e}"))
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or(format!("missing field {key:?}"))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or(format!("{key}: expected an unsigned integer"))
}

fn f64_field(v: &Json, key: &str) -> Result<f64, String> {
    parse_bits(field(v, key)?, key)
}

pub fn cost_table_to_json(table: &CostTable) -> Json {
    let shapes: Vec<Json> = table
        .shapes
        .iter()
        .map(|(id, s)| {
            obj()
                .field("sample", id.name())
                .field("msa_s", bits(s.msa_s))
                .field("feature_bytes", s.feature_bytes)
                .field("feature_load_s", bits(s.feature_load_s))
                .field("peak_msa_bytes", s.peak_msa_bytes)
                .field("admitted", s.admitted)
                .field("compile_s", bits(s.compile_s))
                .field("compute_s", bits(s.compute_s))
                .build()
        })
        .collect();
    obj()
        .field("platform", table.platform.to_string())
        .field("msa_threads", table.msa_threads)
        .field("init_s", bits(table.init_s))
        .field("dispatch_s", bits(table.dispatch_s))
        .field("shapes", shapes)
        .build()
}

fn cost_table_from_json(v: &Json) -> Result<CostTable, String> {
    let name = field(v, "platform")?
        .as_str()
        .ok_or("platform: expected a string")?;
    let platform = Platform::all()
        .into_iter()
        .find(|p| p.to_string() == name)
        .ok_or(format!("unknown platform {name:?}"))?;
    let mut shapes = BTreeMap::new();
    for s in field(v, "shapes")?
        .as_array()
        .ok_or("shapes: expected an array")?
    {
        let sample = field(s, "sample")?
            .as_str()
            .ok_or("sample: expected a string")?;
        let id = SampleId::all()
            .into_iter()
            .find(|id| id.name() == sample)
            .ok_or(format!("unknown sample {sample:?}"))?;
        let cost = ShapeCost {
            msa_s: f64_field(s, "msa_s")?,
            feature_bytes: u64_field(s, "feature_bytes")?,
            feature_load_s: f64_field(s, "feature_load_s")?,
            peak_msa_bytes: u64_field(s, "peak_msa_bytes")?,
            admitted: field(s, "admitted")?
                .as_bool()
                .ok_or("admitted: expected a bool")?,
            compile_s: f64_field(s, "compile_s")?,
            compute_s: f64_field(s, "compute_s")?,
        };
        shapes.insert(id, cost);
    }
    Ok(CostTable {
        platform,
        msa_threads: u64_field(v, "msa_threads")? as usize,
        init_s: f64_field(v, "init_s")?,
        dispatch_s: f64_field(v, "dispatch_s")?,
        shapes,
    })
}

pub fn load_cost_table() -> Result<CostTable, String> {
    let path = cost_table_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    cost_table_from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Bit-for-bit comparison of two cost tables; names the first field that
/// differs.
pub fn compare_tables(got: &CostTable, want: &CostTable) -> Result<(), String> {
    let a = cost_table_to_json(got).to_text();
    let b = cost_table_to_json(want).to_text();
    if a == b {
        return Ok(());
    }
    let at = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
    let from = at.saturating_sub(40);
    Err(format!(
        "cost table differs from the fixture near {:?}",
        &a[from..(at + 40).min(a.len())]
    ))
}

/// An ordered digest of one run's simulated outputs: counts as decimal,
/// floats as their bits, hashes as hex.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Digest(pub Vec<(String, String)>);

impl Digest {
    pub fn count(&mut self, key: &str, value: impl Into<u64>) {
        self.0.push((key.to_owned(), value.into().to_string()));
    }

    pub fn float(&mut self, key: &str, value: f64) {
        self.0
            .push((key.to_owned(), format!("{:#018x}", value.to_bits())));
    }

    pub fn hash(&mut self, key: &str, text: &str) {
        self.0
            .push((key.to_owned(), format!("{:#018x}", fnv1a(text.as_bytes()))));
    }

    /// Ok when equal; otherwise names the first field that differs.
    pub fn check(&self, want: &Digest, what: &str) -> Result<(), String> {
        if self == want {
            return Ok(());
        }
        for ((k, a), (_, b)) in self.0.iter().zip(&want.0) {
            if a != b {
                return Err(format!("{what}: {k} is {a}, expected {b}"));
            }
        }
        Err(format!(
            "{what}: digest has {} fields, expected {}",
            self.0.len(),
            want.0.len()
        ))
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                .collect(),
        )
    }

    fn from_json(v: &Json) -> Result<Digest, String> {
        let fields = v.as_object().ok_or("digest: expected an object")?;
        fields
            .iter()
            .map(|(k, v)| {
                let s = v.as_str().ok_or(format!("digest {k}: expected a string"))?;
                Ok((k.clone(), s.to_owned()))
            })
            .collect::<Result<_, String>>()
            .map(Digest)
    }
}

/// 64-bit FNV-1a, for fingerprinting exported text.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Committed digests: workload → seed → digest.
pub type Digests = BTreeMap<String, BTreeMap<u64, Digest>>;

pub fn load_digests() -> Result<Digests, String> {
    let path = digests_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let mut out = Digests::new();
    for (workload, seeds) in json.as_object().ok_or("digests: expected an object")? {
        let mut per_seed = BTreeMap::new();
        for (seed, digest) in seeds.as_object().ok_or("digests: expected seed objects")? {
            let seed: u64 = seed.parse().map_err(|e| format!("seed {seed:?}: {e}"))?;
            per_seed.insert(seed, Digest::from_json(digest)?);
        }
        out.insert(workload.clone(), per_seed);
    }
    Ok(out)
}

pub fn digests_to_text(digests: &Digests) -> String {
    let json = Json::Obj(
        digests
            .iter()
            .map(|(workload, seeds)| {
                let seeds = seeds
                    .iter()
                    .map(|(seed, d)| (seed.to_string(), d.to_json()))
                    .collect();
                (workload.clone(), Json::Obj(seeds))
            })
            .collect(),
    );
    let mut text = json.pretty();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_round_trip() {
        for x in [0.1, -0.0, 1e300, f64::MIN_POSITIVE] {
            assert_eq!(parse_bits(&bits(x), "x").unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn digest_names_the_first_difference() {
        let mut a = Digest::default();
        a.count("served", 3u64);
        a.float("makespan_s", 1.5);
        let mut b = a.clone();
        b.0[1].1 = "0x0".into();
        let err = a.check(&b, "serve-hot").unwrap_err();
        assert!(err.contains("makespan_s"), "{err}");
        assert!(a.check(&a.clone(), "serve-hot").is_ok());
    }
}
