#include "serve/registry.hpp"

#include <algorithm>
#include <filesystem>
#include <mutex>

#include "common/error.hpp"

namespace extradeep::serve {

namespace {

namespace fs = std::filesystem;

std::vector<std::string> scan_edpm_files(const std::string& dir) {
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
        throw Error("ModelRegistry: '" + dir + "' is not a readable directory");
    }
    std::vector<std::string> paths;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == kEdpmExtension) {
            paths.push_back(entry.path().string());
        }
    }
    if (ec) {
        throw Error("ModelRegistry: cannot scan '" + dir +
                    "': " + ec.message());
    }
    // directory_iterator order is unspecified; sort for determinism.
    std::sort(paths.begin(), paths.end());
    return paths;
}

}  // namespace

RegistryLoadReport ModelRegistry::load_directory(const std::string& dir) {
    RegistryLoadReport report;
    const std::vector<std::string> paths = scan_edpm_files(dir);

    // Parse everything outside all locks; serving continues meanwhile.
    struct Parsed {
        std::string path;
        std::shared_ptr<const ServableModel> model;  // nullptr if quarantined
    };
    std::vector<Parsed> parsed;
    parsed.reserve(paths.size());
    for (const auto& path : paths) {
        EdpmReadResult result;
        try {
            result = read_edpm_file_diagnosed(path);
        } catch (const Error& e) {
            // Unreadable file (e.g. removed mid-scan): quarantine, never
            // drop the registry.
            report.diagnostics.add(Severity::Error,
                                   path + ": " + e.what());
            ++report.quarantined;
            parsed.push_back({path, nullptr});
            continue;
        }
        report.diagnostics.merge(result.diagnostics, path + ": ");
        if (result.ok()) {
            parsed.push_back(
                {path, std::make_shared<const ServableModel>(
                           std::move(*result.model))});
        } else {
            report.diagnostics.add(Severity::Error,
                                   path + ": quarantined (corrupt model file)");
            ++report.quarantined;
            parsed.push_back({path, nullptr});
        }
    }

    // Names claimed by files in this scan, first (lexicographic) file wins.
    std::map<std::string, const Parsed*> by_name;
    for (const auto& p : parsed) {
        if (!p.model) {
            continue;
        }
        const auto [it, inserted] = by_name.emplace(p.model->name, &p);
        if (!inserted) {
            report.diagnostics.add(
                Severity::Warning,
                p.path + ": duplicate model name '" + p.model->name +
                    "' (already provided by " + it->second->path +
                    "), file quarantined");
            ++report.quarantined;
        }
    }
    std::vector<std::string> quarantined_paths;
    for (const auto& p : parsed) {
        if (!p.model) {
            quarantined_paths.push_back(p.path);
        }
    }

    // Apply the whole pass under one exclusive lock, so a reader sees the
    // registry either before or after it. Remove entries loaded from this
    // directory whose file vanished or no longer parses to the same name;
    // corrupt files keep their old entry.
    std::unique_lock lock(mutex_);
    dir_ = dir;
    for (auto it = entries_.begin(); it != entries_.end();) {
        const Entry& e = it->second;
        if (e.dir != dir || by_name.count(it->first) != 0 ||
            std::find(quarantined_paths.begin(), quarantined_paths.end(),
                      e.path) != quarantined_paths.end()) {
            ++it;  // not ours, replaced below, or kept as the last good one
            continue;
        }
        report.diagnostics.add(Severity::Info,
                               "removed '" + it->first +
                                   "' (file gone: " + e.path + ")");
        ++report.removed;
        it = entries_.erase(it);
    }
    for (const auto& [name, p] : by_name) {
        entries_[name] = Entry{p->model, p->path, dir};
        ++report.loaded;
    }
    return report;
}

RegistryLoadReport ModelRegistry::reload() {
    std::string dir;
    {
        std::shared_lock lock(mutex_);
        dir = dir_;
    }
    if (dir.empty()) {
        throw Error("ModelRegistry: reload() before load_directory()");
    }
    return load_directory(dir);
}

void ModelRegistry::add(std::shared_ptr<const ServableModel> model) {
    if (!model) {
        throw InvalidArgumentError("ModelRegistry: null model");
    }
    // Read the key before the move: in `m[k] = v` the RHS is sequenced
    // first, so `entries_[model->name] = {std::move(model), ...}` would
    // dereference an already-moved-from pointer.
    const std::string name = model->name;
    std::unique_lock lock(mutex_);
    entries_[name] = Entry{std::move(model), std::string(), std::string()};
}

std::shared_ptr<const ServableModel> ModelRegistry::find(
    const std::string& name) const {
    std::shared_lock lock(mutex_);
    const auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : it->second.model;
}

std::vector<std::string> ModelRegistry::names() const {
    std::vector<std::string> out;
    std::shared_lock lock(mutex_);
    out.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) {
        out.push_back(name);
    }
    return out;
}

std::size_t ModelRegistry::size() const {
    std::shared_lock lock(mutex_);
    return entries_.size();
}

}  // namespace extradeep::serve
