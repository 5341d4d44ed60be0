#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "instrument/pyinstrument.hpp"

using namespace extradeep::instrument;

TEST(Instrument, AnnotatesFunctionDefinitions) {
    const std::string src =
        "def train(self):\n"
        "    pass\n";
    const auto r = instrument_python(src);
    EXPECT_EQ(r.functions_annotated, 1);
    EXPECT_NE(r.source.find("@nvtx.annotate(\"train\")\ndef train(self):"),
              std::string::npos);
}

TEST(Instrument, AnnotatesNestedFunctionsWithIndent) {
    const std::string src =
        "class Trainer:\n"
        "    def step(self):\n"
        "        pass\n";
    const auto r = instrument_python(src);
    EXPECT_NE(r.source.find("    @nvtx.annotate(\"step\")\n    def step"),
              std::string::npos);
}

TEST(Instrument, AnnotatesAsyncDef) {
    const auto r = instrument_python("async def fetch():\n    pass\n");
    EXPECT_EQ(r.functions_annotated, 1);
    EXPECT_NE(r.source.find("@nvtx.annotate(\"fetch\")"), std::string::npos);
}

TEST(Instrument, AddsImportOnce) {
    const auto r = instrument_python("def f():\n    pass\n");
    EXPECT_TRUE(r.import_added);
    EXPECT_EQ(r.source.find("import nvtx"), 0u);
}

TEST(Instrument, ImportAfterLeadingComments) {
    const std::string src =
        "#!/usr/bin/env python\n"
        "# a training script\n"
        "def f():\n"
        "    pass\n";
    const auto r = instrument_python(src);
    const auto shebang = r.source.find("#!");
    const auto import_pos = r.source.find("import nvtx");
    const auto def_pos = r.source.find("def f");
    EXPECT_LT(shebang, import_pos);
    EXPECT_LT(import_pos, def_pos);
}

TEST(Instrument, DoesNotDuplicateExistingImport) {
    const std::string src =
        "import nvtx\n"
        "def f():\n"
        "    pass\n";
    const auto r = instrument_python(src);
    EXPECT_FALSE(r.import_added);
    EXPECT_EQ(r.source.find("import nvtx"),
              r.source.rfind("import nvtx"));
}

TEST(Instrument, NoImportWhenNothingAnnotated) {
    const auto r = instrument_python("x = 1\n");
    EXPECT_FALSE(r.import_added);
    EXPECT_EQ(r.source.find("import nvtx"), std::string::npos);
}

TEST(Instrument, IdempotentOnFunctions) {
    const auto once = instrument_python("def f():\n    pass\n");
    const auto twice = instrument_python(once.source);
    EXPECT_EQ(twice.functions_annotated, 0);
    EXPECT_EQ(twice.source, once.source);
}

TEST(Instrument, SkipsAlreadyDecoratedEvenWithOtherDecorators) {
    const std::string src =
        "@nvtx.annotate(\"custom\")\n"
        "@staticmethod\n"
        "def f():\n"
        "    pass\n";
    const auto r = instrument_python(src);
    EXPECT_EQ(r.functions_annotated, 0);
}

TEST(Instrument, WrapsEpochLoop) {
    const std::string src =
        "def train():\n"
        "    for epoch in range(EPOCHS):\n"
        "        run_one_epoch()\n";
    const auto r = instrument_python(src);
    EXPECT_EQ(r.loops_annotated, 1);
    EXPECT_NE(r.source.find("with nvtx.annotate(\"epoch\"):"),
              std::string::npos);
    // Body re-indented under the with-statement.
    EXPECT_NE(r.source.find("            run_one_epoch()"), std::string::npos);
}

TEST(Instrument, WrapsStepLoopPatterns) {
    // The paper's Fig. 1 pattern: enumerate over a tf.data dataset.
    const std::string src =
        "for b, (images, labels) in enumerate(train_ds.take(s)):\n"
        "    loss = training_step(images, labels)\n";
    const auto r = instrument_python(src);
    EXPECT_EQ(r.loops_annotated, 1);
    EXPECT_NE(r.source.find("with nvtx.annotate(\"step\"):"),
              std::string::npos);
}

TEST(Instrument, NestedEpochAndStepLoops) {
    const std::string src =
        "for epoch in range(10):\n"
        "    for batch in loader:\n"
        "        step(batch)\n";
    const auto r = instrument_python(src);
    EXPECT_EQ(r.loops_annotated, 2);
    // Both ranges present, step nested deeper than epoch.
    const auto epoch_pos = r.source.find("with nvtx.annotate(\"epoch\")");
    const auto step_pos = r.source.find("with nvtx.annotate(\"step\")");
    ASSERT_NE(epoch_pos, std::string::npos);
    ASSERT_NE(step_pos, std::string::npos);
    EXPECT_LT(epoch_pos, step_pos);
}

TEST(Instrument, LeavesUnrelatedLoopsAlone) {
    const auto r = instrument_python(
        "for item in inventory:\n"
        "    print(item)\n");
    EXPECT_EQ(r.loops_annotated, 0);
}

TEST(Instrument, LoopAnnotationIdempotent) {
    const auto once = instrument_python(
        "for epoch in range(3):\n"
        "    work()\n");
    const auto twice = instrument_python(once.source);
    EXPECT_EQ(twice.loops_annotated, 0);
    EXPECT_EQ(twice.source, once.source);
}

TEST(Instrument, PreservesUnrelatedCode) {
    const std::string src =
        "import os\n"
        "\n"
        "CONFIG = {'lr': 0.1}\n"
        "def f():\n"
        "    return CONFIG\n"
        "\n"
        "print(f())\n";
    const auto r = instrument_python(src);
    EXPECT_NE(r.source.find("CONFIG = {'lr': 0.1}"), std::string::npos);
    EXPECT_NE(r.source.find("print(f())"), std::string::npos);
    EXPECT_NE(r.source.find("import os"), std::string::npos);
}

TEST(Instrument, EmptyLoopBodyIgnored) {
    const auto r = instrument_python("for epoch in range(2):\n");
    EXPECT_EQ(r.loops_annotated, 0);
}

TEST(Instrument, PaperFigure1Example) {
    // The instrumented shape shown in the paper's Fig. 1.
    const std::string src =
        "class Trainer:\n"
        "    def train(self):\n"
        "        for epoch in range(EPOCHS):\n"
        "            for b, (i, l) in enumerate(train_ds.take(s)):\n"
        "                loss_value = training_step(images, labels, b == 0)\n";
    const auto r = instrument_python(src);
    EXPECT_EQ(r.functions_annotated, 1);
    EXPECT_EQ(r.loops_annotated, 2);
    EXPECT_TRUE(r.import_added);
}

TEST(Instrument, FileRoundTrip) {
    const std::string in_path = ::testing::TempDir() + "/train_in.py";
    const std::string out_path = ::testing::TempDir() + "/train_out.py";
    {
        std::ofstream os(in_path);
        os << "def main():\n    pass\n";
    }
    const auto r = instrument_python_file(in_path, out_path);
    EXPECT_EQ(r.functions_annotated, 1);
    std::ifstream is(out_path);
    std::string contents((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(contents.find("@nvtx.annotate(\"main\")"), std::string::npos);
    std::remove(in_path.c_str());
    std::remove(out_path.c_str());
}

TEST(Instrument, MissingInputFileThrows) {
    EXPECT_THROW(
        instrument_python_file("/nonexistent/x.py", "/tmp/out.py"),
        extradeep::Error);
}
