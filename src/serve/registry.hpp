#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "serve/serialize.hpp"

namespace extradeep::serve {

/// Outcome of one registry load/reload pass.
struct RegistryLoadReport {
    int loaded = 0;       ///< files parsed into (new or replaced) entries
    int quarantined = 0;  ///< corrupt files rejected (registry unchanged)
    int removed = 0;      ///< entries dropped because their file disappeared
    DiagnosticLog diagnostics;
};

/// Thread-safe in-memory store of servable models, keyed by model name (the
/// serve plane's lookup path).
///
/// Concurrency contract:
///  - One shared_mutex guards one name→entry map and the remembered
///    directory.
///  - Readers (find/names/size) take the shared lock and return
///    shared_ptr<const ServableModel> values; a model handed out stays valid
///    for as long as the caller holds the pointer, even across a reload that
///    replaces or removes the entry. Loaded models are immutable.
///  - load_directory/reload parse every file outside the lock, so serving is
///    never blocked on disk I/O, then apply the whole pass under one
///    exclusive lock: a reload is atomic across all names, so a reader sees
///    either the registry before it or the registry after it.
///  - Corrupt files are quarantined, never dropped silently: the load report
///    carries their diagnostics, and a corrupt *re*load of an existing entry
///    keeps the previous good model (a bad deploy cannot take down serving).
class ModelRegistry {
public:
    ModelRegistry() = default;

    /// Scans `dir` for *.edpm files (lexicographic order, tolerant parse)
    /// and merges them into the registry. Files whose tolerant load is not
    /// ok() are quarantined. Two files claiming the same model name: the
    /// lexicographically first wins, the other is quarantined with a
    /// warning. Remembers `dir` for reload(). Throws Error if the directory
    /// cannot be read.
    RegistryLoadReport load_directory(const std::string& dir);

    /// Re-scans the directory of the last load_directory call: new files are
    /// added, changed files replace their entry, corrupt files keep the
    /// previous entry (quarantined), and entries loaded from that directory
    /// string whose file disappeared are removed. Programmatic entries
    /// (add()) are never touched. Throws Error if load_directory has not been
    /// called or the directory is unreadable.
    RegistryLoadReport reload();

    /// Inserts a model programmatically (no backing file). Replaces any
    /// existing entry with the same name.
    void add(std::shared_ptr<const ServableModel> model);

    /// Looks a model up by name; nullptr if absent.
    std::shared_ptr<const ServableModel> find(const std::string& name) const;

    /// All model names, sorted.
    std::vector<std::string> names() const;

    std::size_t size() const;

private:
    struct Entry {
        std::shared_ptr<const ServableModel> model;
        std::string path;  ///< backing file, empty for programmatic entries
        std::string dir;   ///< load_directory argument, empty likewise
    };

    mutable std::shared_mutex mutex_;
    std::map<std::string, Entry> entries_;
    std::string dir_;  ///< last load_directory argument
};

}  // namespace extradeep::serve
