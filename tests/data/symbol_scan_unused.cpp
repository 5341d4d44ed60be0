// Fixture for the symbol_scan_negative ctest: an out-of-line function that
// no executable calls. The scan, given this object, must report it UNSEAMED.
namespace extradeep {

int symbol_scan_probe_never_called(int x) { return x + 1; }

}  // namespace extradeep
