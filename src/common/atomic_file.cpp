#include "common/atomic_file.hpp"

#include <filesystem>
#include <system_error>

#include "common/error.hpp"

namespace extradeep {

void write_file_atomically(
    const std::string& path,
    const std::function<void(const std::string& tmp_path)>& write) {
    namespace fs = std::filesystem;
    const std::string tmp = path + ".tmp";
    std::error_code ec;
    try {
        write(tmp);
    } catch (...) {
        fs::remove(tmp, ec);
        throw;
    }
    fs::rename(tmp, path, ec);  // atomic on POSIX: readers see old or new
    if (ec) {
        std::error_code ignored;
        fs::remove(tmp, ignored);
        throw Error("cannot rename '" + tmp + "' to '" + path +
                    "': " + ec.message());
    }
}

}  // namespace extradeep
