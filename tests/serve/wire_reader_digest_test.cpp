// Known answers for the two JSONL wire readers: serve requests
// (serve/request.cpp) and recorded bus traces (stream/trace_reader.cpp).
//
// Every line of the committed serve and trace fuzz corpora, and of the 60
// seeded structure-aware mutations of each corpus file that the fuzz
// storms replay, is read under the lenient and the strict policy. Each
// read feeds a digest with three things: accept or reject, the full
// diagnostics text (every message, its line and its order), and for an
// accepted input its canonical re-serialization. A grid of hand-built
// request lines adds every wire key with boundary values under every
// kind, so each key's range check and kind rule is read at least once.
// A rewrite of either reader must replay every answer byte for byte. A
// mismatch prints the digest it got.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "fuzz_mutators.hpp"
#include "symcan/serve/request.hpp"
#include "symcan/sim/trace_export.hpp"
#include "symcan/stream/trace_reader.hpp"
#include "symcan/util/csv.hpp"

namespace symcan {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kMutationsPerSeed = 60;
constexpr DiagnosticPolicy kPolicies[] = {DiagnosticPolicy::kLenient, DiagnosticPolicy::kStrict};

class Digest {
 public:
  void mix(std::uint64_t v) {
    h_ += v + 0x9e3779b97f4a7c15ULL;
    h_ = (h_ ^ (h_ >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h_ = (h_ ^ (h_ >> 27)) * 0x94d049bb133111ebULL;
    h_ ^= h_ >> 31;
  }
  void mix(const std::string& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x776972652d726561ULL;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxULL", static_cast<unsigned long long>(v));
  return buf;
}

std::vector<fs::path> corpus_files(const char* subdir) {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator{fs::path{SYMCAN_FUZZ_CORPUS_DIR} / subdir})
    if (e.is_regular_file()) files.push_back(e.path());
  std::sort(files.begin(), files.end());
  return files;
}

/// Split like the serve transport: `\n` ends a line, one trailing `\r`
/// is dropped, empty lines are skipped.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    std::string line = text.substr(start, nl == std::string::npos ? nl : nl - start);
    start = nl == std::string::npos ? text.size() + 1 : nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(std::move(line));
  }
  return lines;
}

void mix_request_line(Digest& d, const std::string& line, std::size_t line_no) {
  for (const DiagnosticPolicy policy : kPolicies) {
    Diagnostics diags{policy, "serve request"};
    const auto req = serve::request_from_jsonl(line, line_no, diags);
    d.mix(static_cast<std::uint64_t>(req.has_value()));
    d.mix(diags.format());
    if (req) d.mix(serve::request_to_jsonl(*req));
  }
}

void mix_request_stream(Digest& d, const std::string& text) {
  const auto lines = lines_of(text);
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (!lines[i].empty()) mix_request_line(d, lines[i], i + 1);
}

void mix_trace_text(Digest& d, const std::string& text) {
  for (const DiagnosticPolicy policy : kPolicies) {
    Diagnostics diags{policy};
    const auto trace = stream::trace_from_jsonl(text, diags);
    d.mix(static_cast<std::uint64_t>(trace.has_value()));
    d.mix(diags.format());
    if (trace) d.mix(trace_to_jsonl(*trace));
  }
}

/// The whole document (so the backwards-timestamp warning and the
/// diagnostics bound are read), then each line on its own.
void mix_trace_document(Digest& d, const std::string& text) {
  mix_trace_text(d, text);
  for (const std::string& line : lines_of(text)) mix_trace_text(d, line);
}

/// Per corpus file in name order: verbatim, then mutation seeds 1..60.
template <class Mix, class Mutate>
std::vector<std::uint64_t> corpus_digests(const char* subdir, Mix mix, Mutate mutate) {
  std::vector<std::uint64_t> out;
  for (const fs::path& f : corpus_files(subdir)) {
    const std::string seed_text = read_file(f.string());
    Digest d;
    mix(d, seed_text);
    for (std::uint64_t seed = 1; seed <= kMutationsPerSeed; ++seed) mix(d, mutate(seed_text, seed));
    out.push_back(d.value());
  }
  return out;
}

void expect_known(const std::vector<std::uint64_t>& got, const std::vector<std::uint64_t>& known,
                  const char* subdir) {
  ASSERT_EQ(got.size(), known.size()) << subdir;
  const auto files = corpus_files(subdir);
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], known[i]) << files[i].filename() << " digest " << hex(got[i]);
}

TEST(WireReaderDigest, ServeCorpusAndStormReplayKnownAnswers) {
  // bad_lines, ok_escapes, ok_requests, warn_unknown_key.
  expect_known(corpus_digests("serve", mix_request_stream, fuzz::mutate_serve_jsonl),
               {0xf5ad490165c7ad56ULL, 0x74224eded27daf0eULL, 0x28d4d56c7918ded9ULL,
                0x5941a3675a85ca54ULL},
               "serve");
}

TEST(WireReaderDigest, TraceCorpusAndStormReplayKnownAnswers) {
  // bad_lines, ok_escapes, ok_small, warn_backwards.
  expect_known(corpus_digests("trace", mix_trace_document, fuzz::mutate_trace_jsonl),
               {0x533f04aa48bd32d9ULL, 0xcea39f070b922e31ULL, 0xda945c64aa30d509ULL,
                0x7d950911d07ac053ULL},
               "trace");
}

TEST(WireReaderDigest, EveryRequestKeyUnderEveryKindReplaysKnownAnswer) {
  const char* const kinds[] = {"analyze",  "prob",   "explain",   "validate",
                               "optimize", "health", "telemetry", "frobnicate"};
  const char* const keys[] = {
      "id",         "kind",        "matrix_csv",   "preset",      "jitter",
      "override_known", "message", "json",         "millis",      "seed",
      "errors",     "error_gap_ms", "generations", "population",  "target_jitter",
      "dump",       "fault_ppm",   "stuff_ppm",    "jitter_ppm",  "max_rungs",
      "unknown_knob"};
  const char* const values[] = {
      "-1", "0", "1", "25", "96", "2000", "4096", "4097", "1000000", "1000001",
      "9223372036854775807", "1.5", "1e3", "-0.5", "0.25", "true", "false", "null", R"("")",
      R"("none")", R"("burst")", R"("sporadic")", R"("cosmic")", R"("worst-case")",
      R"("best-case")", R"("default")", R"("prob")", "[1]", "{}"};
  Digest d;
  std::size_t line_no = 0;
  for (const char* kind : kinds) {
    const std::string head = std::string("{\"id\":\"g\",\"kind\":\"") + kind + "\"";
    const std::string matrix = ",\"matrix_csv\":\"c\"";
    const std::string message = ",\"message\":\"M\"";
    for (const char* key : keys) {
      for (const char* value : values) {
        const std::string field = std::string(",\"") + key + "\":" + value;
        // The key alone, the key with the matrix and message a kind may
        // need, the key twice, and the key before a broken separator.
        for (const std::string& line :
             {head + field + "}", head + matrix + message + field + "}",
              head + matrix + field + field + "}", head + field + " \"x\":1}"})
          mix_request_line(d, line, ++line_no);
      }
    }
    for (const std::string& line :
         {head + "}", head + matrix + "}", head + matrix + message + "}", head + "} x",
          "{\"kind\":\"" + std::string(kind) + "\"}", std::string("{\"id\":\"g\"}"),
          head + ",\"id\":\"h\"}", head + ",\"kind\":\"health\"}", head + ",\"matrix_csv\" 1}"})
      mix_request_line(d, line, ++line_no);
  }
  EXPECT_EQ(d.value(), 0xaa2c805323db7d7cULL) << "digest " << hex(d.value());
}

TEST(WireReaderDigest, EveryTraceKeyReplaysKnownAnswer) {
  const std::string full = R"("t_ns":5,"type":"tx_end","message":"M","instance":2)";
  const char* const keys[] = {"t_ns", "type", "message", "instance", "unknown_knob"};
  const char* const values[] = {"-1",   "0",     "7",          "9223372036854775807",
                                "1.5",  "1e3",   "true",       "null",
                                R"("")", R"("release")", R"("loss")", R"("warp")",
                                "[1]",  "{}"};
  Digest d;
  for (const char* key : keys) {
    for (const char* value : values) {
      const std::string field = std::string("\"") + key + "\":" + value;
      // The key alone, after a complete event (so twice for a known
      // key), and before a broken separator.
      for (const std::string& line :
           {"{" + field + "}", "{" + full + "," + field + "}", "{" + field + " " + full + "}"})
        mix_trace_text(d, line);
    }
  }
  for (const std::string& text : {std::string("{}"), std::string("{ }  "), "{" + full + "} x",
                                  "[" + full + "]", "{" + full + ",}", std::string("")})
    mix_trace_text(d, text);
  EXPECT_EQ(d.value(), 0xd80cd6c666d57efdULL) << "digest " << hex(d.value());
}

}  // namespace
}  // namespace symcan
