// Newline-delimited JSON session protocol over arbitrary iostreams.
//
// One request object per input line, one response object per output line.
// unicon_serve binds this to stdin/stdout or an AF_UNIX socket; the tests
// drive it over stringstreams.  The session opens with a hello line naming
// the protocol and its version, and every response envelope repeats the
// version, so clients detect schema drift before parsing further.  Schema
// (see README "Server mode"):
//
//   hello    {"hello": "unicon-serve", "version": 1}
//   request  {"id": "q1", "op": "query",
//             "model": {"kind": "uni"|"dft"|"ctmdp"|"ctmc", "source": "...",
//                       "labels": "...", "goal": "goal"},
//             "times": [0.5, 2.0], "objective": "max"|"min",
//             "epsilon": 1e-6, "backend": "auto", "truncation": "auto",
//             "locking": true, "threads": 1, "deadline": 0,
//             "cancel_after_polls": 0, "wait": true}
//   response {"id": "q1", "version": 1, "ok": true, "model_hash": "...",
//             "cache_hit": false, "batched_with": 1,
//             "results": [{"time", "value", "residual_bound",
//                          "iterations_planned", "iterations_executed",
//                          "status"}, ...], "seconds": 0.01}
//   failure  {"id": "q1", "version": 1, "ok": false,
//             "error": {"code": "parse", "exit": 13, "message": "..."}}
//
// The "dft" kind carries a Galileo dynamic fault tree as "source"; the
// goal is the top event's "failed" proposition ("goal"/"labels" are
// ignored), and "objective" picks the sup/inf unreliability bound.
//
// The failure "error" object is exactly the unicon_check --json-errors
// schema (stable ErrorCode names and exit numbers).  Other ops: "cancel"
// (field "target" names the query id), "stats", "shutdown".  A query with
// "wait": false is acknowledged immediately ({"accepted": true}) and its
// result arrives as a later line — that is what makes over-the-wire
// cancellation of an in-flight solve possible.  With the default
// "wait": true the session is strictly request/response in order, which
// the golden-replay test relies on.
#pragma once

#include <csignal>
#include <cstddef>
#include <iosfwd>
#include <string>

namespace unicon::server {

class AnalysisService;

struct SessionOptions {
  /// Fair-share bucket of every query this session submits.
  std::string client;
  /// False (unicon_serve --no-timing) pins "seconds" to 0 in responses so
  /// golden-session replays diff byte-for-byte.
  bool timing = true;
  /// Byte cap on one request line.  The session reads at most this many
  /// bytes before answering Parse and discarding the rest of the line, so
  /// a hostile client can never make the server buffer an unbounded line.
  std::size_t max_line_bytes = std::size_t{8} << 20;
  /// Optional external stop flag (the unicon_serve SIGTERM/SIGINT drain):
  /// once nonzero, the session stops reading new requests, drains its
  /// outstanding async queries and returns.
  const volatile std::sig_atomic_t* stop = nullptr;
  /// Accept chaos fault-plan fields ("fault_alloc_nth",
  /// "fault_poison_step", "fault_throw") in query envelopes.  Off by
  /// default — the allocation fault arms a process-global hook, so on a
  /// shared server these fields are an operator decision (unicon_serve
  /// --enable-fault-plans), never a client's.  When off, a request
  /// carrying any of them is answered with a parse error.
  bool allow_fault_plans = false;
};

/// Serves @p in/@p out until EOF, a "shutdown" op, or the external stop
/// flag; drains outstanding async queries before returning.  Hostile input
/// — malformed JSON, oversized lines, NUL bytes, invalid UTF-8, unknown or
/// mistyped envelope fields — is answered with a typed failure object
/// naming the offending field, never a crash or a dropped connection.
void run_session(std::istream& in, std::ostream& out, AnalysisService& service,
                 const SessionOptions& options = {});

}  // namespace unicon::server
