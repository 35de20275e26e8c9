// Crash-safe persistence for the server model cache.
//
// Format `unicon-cache-v2` (text, one snapshot per file):
//
//   unicon-cache-v2
//   entry <canonical_hash:32hex> <body_bytes:dec> <checksum:16hex>
//   <body_bytes bytes of record body, ending in '\n'>
//   ... more `entry` records ...
//   end <record_count:dec>
//
// Each record body is self-describing:
//
//   kind <uni|dft|ctmdp|ctmc>
//   sources <n>
//   <n lines of 32-hex source keys aliased onto this entry>
//   goal <'0'/'1' mask, one char per state>
//   ugoal <'0'/'1' universal-goal mask>
//   model
//   <the lowered model in io::write_ctmdp / io::write_ctmc text form>
//
// The checksum is the first 64 bits of content_hash over the parts
// `<canonical_hash>`, `\n`, `<body>`, so a flipped bit in either the
// header's hash field or the body is detected.  Because io writes doubles
// with setprecision(17) they round-trip bitwise, which is what makes a
// warm-started server answer bit-identically to the process that wrote the
// snapshot.
//
// v2 differs from `unicon-cache-v1` only in its key and checksum bytes,
// which v1 computed with FNV-1a.  A v1 file cannot be converted: its
// source aliases and canonical keys are hashes of bytes the snapshot does
// not hold (a request's source; a DFT entry's Galileo print).  The loader
// recognizes the v1 magic, loads nothing and reports `old_format`.
//
// Recovery semantics (ModelCache::load_snapshot): the declared body length
// lets the loader skip a checksum-failed record and resync at the next
// `entry` line, so one torn record does not discard the rest of the file; a
// truncated tail (crash mid-write of a non-atomic copy) ends recovery with
// `truncated` set.  Corruption is never fatal — the worst case is a cold
// cache.  save_cache_snapshot below writes to `<path>.tmp` and renames, so
// a crash (even kill -9) mid-save can never tear the published file.
#pragma once

#include <string>

#include "server/model_cache.hpp"

namespace unicon::server {

inline constexpr const char* kCacheSnapshotMagic = "unicon-cache-v2";

/// Atomically writes @p cache to @p path (write `<path>.tmp`, fsync-free
/// rename).  Throws ModelError when the temp file cannot be written or the
/// rename fails; the temp file is removed on failure.
SnapshotStats save_cache_snapshot(const ModelCache& cache, const std::string& path);

/// Warm-starts @p cache from @p path.  A missing file is a normal cold
/// start (all-zero stats); a corrupt file restores whatever authenticates
/// (see ModelCache::load_snapshot).  Never throws on bad content.
SnapshotStats load_cache_snapshot(ModelCache& cache, const std::string& path);

}  // namespace unicon::server
