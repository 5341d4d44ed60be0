#pragma once

#include <string>

namespace extradeep::instrument {

/// Result of instrumenting one Python source file.
struct InstrumentResult {
    std::string source;          ///< the instrumented source text
    int functions_annotated = 0;
    int loops_annotated = 0;
    bool import_added = false;
};

/// The automated NVTX instrumentation tool (paper Sec. 2.1, step 1): static
/// analysis of Python training code that adds @nvtx.annotate("<name>")
/// decorators to function definitions, wraps the bodies of epoch/step loops
/// in `with nvtx.annotate(...)` ranges (the epoch/step begin-end marks of
/// Fig. 2), and inserts `import nvtx` once at the top of the module if
/// missing. The marks are the timestamps the sampling strategy needs to
/// identify training steps.
///
/// Instruments Python source text. The transformation is idempotent:
/// already-annotated functions/loops are left untouched, and the import is
/// added at most once. Only top-level syntax is analysed (line-based,
/// indentation-aware); code inside strings may be mis-detected in
/// pathological cases, as with any static regex-level analyzer.
InstrumentResult instrument_python(const std::string& source);

/// File convenience wrapper: reads `input_path`, writes the instrumented
/// source to `output_path`. Throws Error on I/O failure.
InstrumentResult instrument_python_file(const std::string& input_path,
                                        const std::string& output_path);

}  // namespace extradeep::instrument
