//! Human-readable JSON-lines export of a [`MeasurementSet`] — the greppable
//! twin of the binary codec (see [`crate::codec`]). It is write-only:
//! nothing in the tree parses it back, and the binary codec stays the one
//! format a set is read from.
//!
//! One JSON object per line:
//!
//! ```text
//! {"type":"meta","version":1,"scenario":…,"fingerprint":…,"seed":…,"build":…}
//! {"type":"node","kind":"host","name":"h1"}            (one per node)
//! {"type":"link","src":0,"dst":2,"capacity_bps":…,…}   (one per link)
//! {"type":"path","name":"p1","links":[0,3]}            (one per path)
//! {"type":"classes","classes":[[0,1],[2,3]]}
//! {"type":"log","interval_s":0.1,"paths":4,"intervals":120}
//! {"type":"interval","t":0,"sent":[…],"lost":[…]}      (one per interval)
//! ```
//!
//! Version 2 (emitted only when the log carries a one-way delay grid, same
//! rule as the binary codec) appends one `"delay"` array per interval line
//! — `null` per no-sample cell, else
//! `{"count":…,"p50_s":…,"p90_s":…,"p99_s":…}`:
//!
//! ```text
//! {"type":"interval","t":0,"sent":[…],"lost":[…],"delay":[null,{"count":12,…}]}
//! ```
//!
//! The text is lossless: floats are printed with Rust's shortest
//! round-trip formatting, and `u64`s (seeds, fingerprints, counts) as exact
//! digit strings, so values above 2^53 survive any reader that keeps them
//! out of an f64.

use crate::dataset::MeasurementSet;
use nni_topology::{NodeKind, PathId};

/// The loss-only format version.
pub const JSONL_VERSION_V1: u64 = 1;

/// The delay-carrying format version.
pub const JSONL_VERSION_V2: u64 = 2;

/// Escapes `s` for the inside of a JSON string: `"`, `\` and newline by
/// their short escapes, every other control character as `\u00XX`. The one
/// escaper behind this export, the service daemon's verdict lines and
/// `nni-live`'s updates.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `{:?}` on finite f64 is Rust's shortest exact round-trip form.
fn num(x: f64) -> String {
    debug_assert!(x.is_finite(), "measurement floats are finite");
    format!("{x:?}")
}

fn u64_list(vals: impl Iterator<Item = u64>) -> String {
    let items: Vec<String> = vals.map(|v| v.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// Dumps a measurement set as JSON lines (trailing newline included).
pub fn to_jsonl(set: &MeasurementSet) -> String {
    let mut out = String::new();
    let p = &set.provenance;
    let version = if set.log.has_delay() {
        JSONL_VERSION_V2
    } else {
        JSONL_VERSION_V1
    };
    out.push_str(&format!(
        "{{\"type\":\"meta\",\"version\":{version},\"scenario\":\"{}\",\
         \"fingerprint\":{},\"seed\":{},\"build\":\"{}\"}}\n",
        escape(&p.scenario),
        p.scenario_fingerprint,
        p.seed,
        escape(&p.build),
    ));
    for n in set.topology.nodes() {
        let kind = match n.kind {
            NodeKind::Host => "host",
            NodeKind::Relay => "relay",
        };
        out.push_str(&format!(
            "{{\"type\":\"node\",\"kind\":\"{kind}\",\"name\":\"{}\"}}\n",
            escape(&n.name)
        ));
    }
    for l in set.topology.links() {
        out.push_str(&format!(
            "{{\"type\":\"link\",\"src\":{},\"dst\":{},\"capacity_bps\":{},\
             \"delay_s\":{},\"name\":\"{}\"}}\n",
            l.src.index(),
            l.dst.index(),
            num(l.capacity_bps),
            num(l.delay_s),
            escape(&l.name),
        ));
    }
    for path in set.topology.paths() {
        out.push_str(&format!(
            "{{\"type\":\"path\",\"name\":\"{}\",\"links\":{}}}\n",
            escape(path.name()),
            u64_list(path.links().iter().map(|l| l.index() as u64)),
        ));
    }
    let classes: Vec<String> = set
        .classes
        .iter()
        .map(|c| u64_list(c.iter().map(|p| p.index() as u64)))
        .collect();
    out.push_str(&format!(
        "{{\"type\":\"classes\",\"classes\":[{}]}}\n",
        classes.join(",")
    ));
    let log = &set.log;
    out.push_str(&format!(
        "{{\"type\":\"log\",\"interval_s\":{},\"paths\":{},\"intervals\":{}}}\n",
        num(log.interval_s()),
        log.path_count(),
        log.interval_count(),
    ));
    for t in 0..log.interval_count() {
        let delay = if log.has_delay() {
            let cells: Vec<String> = (0..log.path_count())
                .map(|p| match log.delay(t, PathId(p)) {
                    Some(s) => format!(
                        "{{\"count\":{},\"p50_s\":{},\"p90_s\":{},\"p99_s\":{}}}",
                        s.count,
                        num(s.p50_s),
                        num(s.p90_s),
                        num(s.p99_s),
                    ),
                    None => "null".to_string(),
                })
                .collect();
            format!(",\"delay\":[{}]", cells.join(","))
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{{\"type\":\"interval\",\"t\":{t},\"sent\":{},\"lost\":{}{delay}}}\n",
            u64_list((0..log.path_count()).map(|p| log.sent(t, PathId(p)))),
            u64_list((0..log.path_count()).map(|p| log.lost(t, PathId(p)))),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::dataset::Provenance;
    use crate::record::{DelayStats, MeasurementLog};
    use nni_topology::TopologyBuilder;

    fn sample() -> MeasurementSet {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0 \"quoted\"");
        let h1 = b.host("h1\nnewline");
        let r = b.relay("r ⟨l5⟩");
        let l0 = b.link_with("l0", h0, r, 100e6, 0.005).unwrap();
        let l1 = b.link_with("l1", r, h1, 0.1 + 0.2, 1.0 / 3.0).unwrap();
        b.path("p0", vec![l0, l1]).unwrap();
        let mut log = MeasurementLog::new(1, 0.1);
        log.record_sent(0, PathId(0), 100);
        log.record_lost(0, PathId(0), 3);
        log.record_sent(2, PathId(0), u64::MAX);
        MeasurementSet {
            topology: b.build(),
            classes: vec![vec![PathId(0)], vec![]],
            log,
            provenance: Provenance {
                scenario: "jsonl sample".into(),
                scenario_fingerprint: u64::MAX - 1,
                seed: 1 << 60,
                build: "test".into(),
            },
        }
    }

    fn sample_with_delay() -> MeasurementSet {
        let mut set = sample();
        let mut rows = vec![vec![None; 1]; set.log.interval_count()];
        rows[0][0] = DelayStats::from_sorted_ns(&[5_000_000, 7_000_000, 9_000_000]);
        rows[2][0] = DelayStats::from_sorted_ns(&[333_333_333]);
        set.log.set_delay(rows);
        set
    }

    /// The whole export of [`sample`], pinned byte for byte.
    const SAMPLE_JSONL: &str = concat!(
        r#"{"type":"meta","version":1,"scenario":"jsonl sample","fingerprint":18446744073709551614,"seed":1152921504606846976,"build":"test"}"#,
        "\n",
        r#"{"type":"node","kind":"host","name":"h0 \"quoted\""}"#,
        "\n",
        r#"{"type":"node","kind":"host","name":"h1\nnewline"}"#,
        "\n",
        r#"{"type":"node","kind":"relay","name":"r ⟨l5⟩"}"#,
        "\n",
        r#"{"type":"link","src":0,"dst":2,"capacity_bps":100000000.0,"delay_s":0.005,"name":"l0"}"#,
        "\n",
        r#"{"type":"link","src":2,"dst":1,"capacity_bps":0.30000000000000004,"delay_s":0.3333333333333333,"name":"l1"}"#,
        "\n",
        r#"{"type":"path","name":"p0","links":[0,1]}"#,
        "\n",
        r#"{"type":"classes","classes":[[0],[]]}"#,
        "\n",
        r#"{"type":"log","interval_s":0.1,"paths":1,"intervals":3}"#,
        "\n",
        r#"{"type":"interval","t":0,"sent":[100],"lost":[3]}"#,
        "\n",
        r#"{"type":"interval","t":1,"sent":[0],"lost":[0]}"#,
        "\n",
        r#"{"type":"interval","t":2,"sent":[18446744073709551615],"lost":[0]}"#,
        "\n",
    );

    #[test]
    fn escape_writes_short_and_unicode_escapes() {
        assert_eq!(
            escape("a\"b\\c\nd\te\u{1}f ⟨g⟩"),
            r#"a\"b\\c\nd\u0009e\u0001f ⟨g⟩"#
        );
    }

    #[test]
    fn round_trip_is_bit_identical() {
        // Awkward floats (0.1+0.2, 1/3) print in shortest round-trip form,
        // u64s beyond 2^53 as exact digits, and quotes, newlines and
        // non-ASCII names escape cleanly.
        assert_eq!(to_jsonl(&sample()), SAMPLE_JSONL);
        for x in [0.1 + 0.2, 1.0 / 3.0, 100e6, 5e-324, f64::MAX] {
            assert_eq!(num(x).parse::<f64>().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn jsonl_and_binary_agree() {
        // Exporting a set decoded from its binary encoding gives the same
        // text as exporting the set itself.
        let set = sample();
        let via_binary = codec::decode(&codec::encode(&set)).unwrap();
        assert_eq!(to_jsonl(&via_binary), to_jsonl(&set));
    }

    #[test]
    fn delay_sets_round_trip_as_version_2() {
        let set = sample_with_delay();
        let text = to_jsonl(&set);
        assert!(text.starts_with("{\"type\":\"meta\",\"version\":2,"));
        // The delay grid survives the binary round trip into the export.
        let via_binary = codec::decode(&codec::encode(&set)).unwrap();
        assert_eq!(to_jsonl(&via_binary), text);
        // Loss-only dumps keep the version-1 meta line bit-for-bit.
        assert!(to_jsonl(&sample()).starts_with("{\"type\":\"meta\",\"version\":1,"));
    }

    #[test]
    fn version_2_interval_lines_require_the_delay_array() {
        // Every version-2 interval line carries one delay cell per path,
        // `null` where no packet was sampled.
        let text = to_jsonl(&sample_with_delay());
        let intervals: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"interval\""))
            .collect();
        assert_eq!(
            intervals,
            [
                r#"{"type":"interval","t":0,"sent":[100],"lost":[3],"delay":[{"count":3,"p50_s":0.007,"p90_s":0.009,"p99_s":0.009}]}"#,
                r#"{"type":"interval","t":1,"sent":[0],"lost":[0],"delay":[null]}"#,
                r#"{"type":"interval","t":2,"sent":[18446744073709551615],"lost":[0],"delay":[{"count":1,"p50_s":0.333333333,"p90_s":0.333333333,"p99_s":0.333333333}]}"#,
            ]
        );
    }
}
