//! Per-op outputs pinned for [`PIN_SEED`](crate::PIN_SEED) at full size.
//!
//! `pins/seed1.txt` holds one line per input: `<workload> <index>
//! <fingerprint> <aux>`, where the fingerprint is
//! `InferenceResult::fingerprint()` and `aux` is `segments_sent` for
//! emulated members (0 otherwise). Regenerate it only for an intended
//! behaviour change, with `perfbench --workload <w> --seed 1 ... --print-pins`.

use crate::Check;

const PINS: &str = include_str!("../pins/seed1.txt");

/// The pinned checks of `workload`, in input order, if any are pinned.
pub fn for_workload(workload: &str) -> Option<Vec<Check>> {
    let mut checks = Vec::new();
    for line in PINS.lines().filter(|l| !l.trim().is_empty()) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, index, fingerprint, aux] = fields[..] else {
            panic!("malformed pin line: {line}");
        };
        if name != workload {
            continue;
        }
        let parse = |s: &str| s.parse::<u64>().expect("pin fields are integers");
        assert_eq!(
            parse(index) as usize,
            checks.len(),
            "pins are in input order"
        );
        checks.push((parse(fingerprint), parse(aux)));
    }
    (!checks.is_empty()).then_some(checks)
}

/// Pin lines for `workload`, one per input.
pub fn format(workload: &str, checks: &[Check]) -> String {
    checks
        .iter()
        .enumerate()
        .map(|(i, (fingerprint, aux))| format!("{workload} {i} {fingerprint} {aux}\n"))
        .collect()
}
