// unicon-cache-v2 snapshot serialization for ModelCache (format and
// recovery semantics documented in snapshot.hpp).  Implemented here as
// out-of-line ModelCache members so model_cache.cpp keeps only the hot
// resolve path.
#include "server/snapshot.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

#include "io/tra.hpp"
#include "support/errors.hpp"

namespace unicon::server {

namespace {

// A corrupted length field must not drive a giant allocation in the
// loader; no real record body approaches this.
constexpr std::uint64_t kMaxBodyBytes = std::uint64_t{1} << 30;
constexpr std::size_t kMaxSourceAliases = 100000;

// The FNV-1a-keyed format v2 replaced; recognized only to report it.
constexpr const char* kOldSnapshotMagic = "unicon-cache-v1";

/// The record checksum: the first 64 bits (16 hex digits) of the content
/// hash over `<hash>\n<body>`.
std::string record_checksum(const std::string& hash, const std::string& body) {
  return content_hash({hash, "\n", body}).substr(0, 16);
}

bool is_hex(const std::string& s, std::size_t n) {
  if (s.size() != n) return false;
  for (const char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.size() > 19) return false;
  out = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

/// Parses `entry <hash> <bytes> <checksum>`; false on any deviation.
bool parse_entry_header(const std::string& line, std::string& hash, std::uint64_t& body_bytes,
                        std::string& checksum) {
  std::istringstream in(line);
  std::string tag, bytes_field, extra;
  if (!(in >> tag >> hash >> bytes_field >> checksum) || tag != "entry" || (in >> extra)) {
    return false;
  }
  if (!is_hex(hash, 32) || !is_hex(checksum, 16)) return false;
  if (!parse_u64(bytes_field, body_bytes) || body_bytes > kMaxBodyBytes) return false;
  return true;
}

/// Scans forward for the next plausible record boundary after a malformed
/// header.  A false positive (a body line that happens to start with
/// "entry ") just yields one more checksum-failed record — recovery stays
/// sound either way.
bool resync_to_boundary(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    if (line.rfind("entry ", 0) == 0 || line.rfind("end ", 0) == 0) return true;
  }
  return false;
}

bool parse_kind_name(const std::string& name, ModelKind& kind) {
  if (name == "uni") {
    kind = ModelKind::Uni;
  } else if (name == "dft") {
    kind = ModelKind::Dft;
  } else if (name == "ctmdp") {
    kind = ModelKind::CtmdpFile;
  } else if (name == "ctmc") {
    kind = ModelKind::CtmcFile;
  } else {
    return false;
  }
  return true;
}

struct ParsedRecord {
  ModelKind kind = ModelKind::Uni;
  std::vector<std::string> sources;
  std::optional<Ctmdp> ctmdp;
  std::optional<Ctmc> chain;
  BitVector goal;
  BitVector goal_universal;
};

BitVector parse_mask(const std::string& chars, std::size_t num_states) {
  if (chars.size() != num_states) {
    throw ParseError("cache snapshot: goal mask length " + std::to_string(chars.size()) +
                     " does not match " + std::to_string(num_states) + " states");
  }
  BitVector mask(num_states);
  for (std::size_t s = 0; s < num_states; ++s) {
    if (chars[s] == '1') {
      mask.set(s);
    } else if (chars[s] != '0') {
      throw ParseError("cache snapshot: goal mask holds a character other than 0/1");
    }
  }
  return mask;
}

std::string expect_field(std::istream& in, const char* field) {
  std::string line;
  const std::string prefix = std::string(field) + ' ';
  if (!std::getline(in, line) || line.rfind(prefix, 0) != 0) {
    throw ParseError(std::string("cache snapshot: expected '") + field + "' line");
  }
  return line.substr(prefix.size());
}

/// Parses an authenticated record body; throws ParseError/ModelError on any
/// structural deviation (the caller counts those as corrupt records).
ParsedRecord parse_record_body(const std::string& body) {
  ParsedRecord record;
  std::istringstream in(body);
  if (!parse_kind_name(expect_field(in, "kind"), record.kind)) {
    throw ParseError("cache snapshot: unknown model kind");
  }
  std::uint64_t num_sources = 0;
  if (!parse_u64(expect_field(in, "sources"), num_sources) || num_sources > kMaxSourceAliases) {
    throw ParseError("cache snapshot: bad source-alias count");
  }
  record.sources.reserve(num_sources);
  for (std::uint64_t i = 0; i < num_sources; ++i) {
    std::string key;
    if (!std::getline(in, key) || !is_hex(key, 32)) {
      throw ParseError("cache snapshot: bad source-alias key");
    }
    record.sources.push_back(std::move(key));
  }
  const std::string goal_chars = expect_field(in, "goal");
  const std::string ugoal_chars = expect_field(in, "ugoal");
  std::string marker;
  if (!std::getline(in, marker) || marker != "model") {
    throw ParseError("cache snapshot: expected 'model' marker");
  }
  std::size_t num_states = 0;
  if (record.kind == ModelKind::CtmcFile) {
    record.chain = io::read_ctmc(in);
    num_states = record.chain->num_states();
  } else {
    record.ctmdp = io::read_ctmdp(in);
    num_states = record.ctmdp->num_states();
  }
  record.goal = parse_mask(goal_chars, num_states);
  record.goal_universal = parse_mask(ugoal_chars, num_states);
  return record;
}

std::size_t mask_bytes(const BitVector& mask) { return (mask.size() + 7) / 8; }

}  // namespace

SnapshotStats ModelCache::save_snapshot(std::ostream& out) const {
  struct Item {
    std::string hash;
    std::shared_ptr<const CachedModel> model;
    std::vector<std::string> sources;
  };
  std::vector<Item> items;
  {
    // Copy the shared_ptrs under the lock; serialization (which can be
    // megabytes of io text) runs without blocking resolve().
    std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_map<std::string, std::size_t> index;
    items.reserve(by_canonical_.size());
    for (const auto& [hash, entry] : by_canonical_) {
      index.emplace(hash, items.size());
      items.push_back(Item{hash, entry.model, {}});
    }
    for (const auto& [source_key, canonical] : source_to_canonical_) {
      const auto it = index.find(canonical);
      if (it != index.end()) items[it->second].sources.push_back(source_key);
    }
  }
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.hash < b.hash; });
  for (Item& item : items) std::sort(item.sources.begin(), item.sources.end());

  SnapshotStats stats;
  out << kCacheSnapshotMagic << '\n';
  for (const Item& item : items) {
    std::string body;
    body += "kind ";
    body += model_kind_name(item.model->kind());
    body += '\n';
    body += "sources " + std::to_string(item.sources.size()) + '\n';
    for (const std::string& key : item.sources) {
      body += key;
      body += '\n';
    }
    body += "goal ";
    for (const bool bit : item.model->goal_) body += bit ? '1' : '0';
    body += '\n';
    body += "ugoal ";
    for (const bool bit : item.model->goal_universal_) body += bit ? '1' : '0';
    body += '\n';
    body += "model\n";
    std::ostringstream model_text;
    if (item.model->is_ctmc()) {
      io::write_ctmc(model_text, item.model->chain());
    } else {
      io::write_ctmdp(model_text, item.model->ctmdp());
    }
    body += model_text.str();
    if (body.back() != '\n') body += '\n';  // record headers start on a line boundary
    out << "entry " << item.hash << ' ' << body.size() << ' '
        << record_checksum(item.hash, body) << '\n'
        << body;
    ++stats.entries_written;
  }
  out << "end " << items.size() << '\n';
  return stats;
}

SnapshotStats ModelCache::load_snapshot(std::istream& in) {
  SnapshotStats stats;
  std::string line;
  if (!std::getline(in, line) || line != kCacheSnapshotMagic) {
    if (line == kOldSnapshotMagic) {
      stats.old_format = true;
    } else {
      stats.truncated = true;
    }
    return stats;
  }
  std::uint64_t records_seen = 0;
  bool saw_end = false;
  bool have_line = static_cast<bool>(std::getline(in, line));
  while (have_line) {
    if (line.rfind("end ", 0) == 0) {
      saw_end = true;
      std::uint64_t declared = 0;
      // A count mismatch or trailing bytes past the marker mean whole
      // records were lost or appended — flag it, keep what authenticated.
      if (!parse_u64(line.substr(4), declared) || declared != records_seen ||
          in.peek() != std::char_traits<char>::eof()) {
        stats.truncated = true;
      }
      break;
    }
    std::string hash;
    std::string checksum;
    std::uint64_t body_bytes = 0;
    if (!parse_entry_header(line, hash, body_bytes, checksum)) {
      ++stats.entries_corrupt;
      ++records_seen;
      have_line = resync_to_boundary(in, line);
      continue;
    }
    ++records_seen;
    std::string body(body_bytes, '\0');
    in.read(body.data(), static_cast<std::streamsize>(body_bytes));
    if (static_cast<std::uint64_t>(in.gcount()) != body_bytes) {
      // Torn tail: the writer died mid-record (non-atomic copy) or the
      // file was truncated.  Nothing after this point can be framed.
      ++stats.entries_corrupt;
      stats.truncated = true;
      return stats;
    }
    have_line = static_cast<bool>(std::getline(in, line));
    if (record_checksum(hash, body) != checksum) {
      ++stats.entries_corrupt;
      continue;  // declared length already advanced us past the record
    }
    try {
      ParsedRecord record = parse_record_body(body);
      auto built = std::shared_ptr<CachedModel>(new CachedModel());
      built->kind_ = record.kind;
      built->canonical_hash_ = hash;
      built->goal_ = std::move(record.goal);
      built->goal_universal_ = std::move(record.goal_universal);
      if (record.chain.has_value()) {
        built->chain_ = std::move(record.chain);
      } else {
        built->ctmdp_ = std::move(record.ctmdp);
      }
      built->base_bytes_ = (built->ctmdp_.has_value() ? built->ctmdp_->memory_bytes()
                                                      : built->chain_->memory_bytes()) +
                           mask_bytes(built->goal_) + mask_bytes(built->goal_universal_);
      std::lock_guard<std::mutex> lock(mutex_);
      const auto existing = by_canonical_.find(hash);
      if (existing == by_canonical_.end()) {
        by_canonical_[hash] = Entry{built, ++tick_};
        ++stats.entries_loaded;
      }
      for (const std::string& key : record.sources) {
        if (source_to_canonical_.emplace(key, hash).second) ++stats.aliases_loaded;
      }
      evict_locked(nullptr);
    } catch (const std::exception&) {
      // Authenticated but unparseable (version skew, hand-edited file):
      // treat exactly like a checksum failure.
      ++stats.entries_corrupt;
    }
  }
  if (!saw_end) stats.truncated = true;
  return stats;
}

SnapshotStats save_cache_snapshot(const ModelCache& cache, const std::string& path) {
  const std::string tmp = path + ".tmp";
  SnapshotStats stats;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw ModelError("cache snapshot: cannot open '" + tmp + "' for writing");
    }
    stats = cache.save_snapshot(out);
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      throw ModelError("cache snapshot: write to '" + tmp + "' failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw ModelError("cache snapshot: rename to '" + path + "' failed: " +
                     std::string(std::strerror(errno)));
  }
  return stats;
}

SnapshotStats load_cache_snapshot(ModelCache& cache, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};  // no snapshot on disk is a normal cold start
  return cache.load_snapshot(in);
}

}  // namespace unicon::server
