#pragma once

// Negative control for scripts/knob_scan.sh: nothing anywhere writes this
// field, and tests/data/knob_seams.txt does not name it, so a scan that
// includes this header must fail on it.
struct KnobScanProbeOptions {
    /// Never set by any program, bench, example or test.
    int knob_scan_probe_never_written = 1;
};
