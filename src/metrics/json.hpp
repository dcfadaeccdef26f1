#ifndef GECKO_METRICS_JSON_HPP_
#define GECKO_METRICS_JSON_HPP_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/**
 * @file
 * JSON text: the writers' helpers, the one JSON reader, and the
 * durable JSONL journal (writer and reader).
 *
 * Scenario specs, the campaign manifest and `results.jsonl`, the
 * adversary's `search.jsonl` and child bench records all parse through
 * parseJson().  Syntax is strict RFC 8259 — no trailing commas, bare
 * control characters or lax numbers — and duplicate keys are refused;
 * meaning is the caller's, so an object keeps its members in file order
 * and keys a reader does not know are simply never looked up.  Numbers
 * keep their lexeme, so 64-bit integers are read from the text, not
 * through a double.
 */

namespace gecko::metrics {

/** Escape a string for inclusion in a JSON literal. */
std::string jsonEscape(const std::string& s);

/** Shortest decimal text that strtod() reads back as exactly `v`. */
std::string roundTripNumber(double v);

/** One parsed JSON value. */
struct JsonValue {
    enum Type { kNull, kBool, kNumber, kString, kArray, kObject };
    Type type = kNull;
    bool b = false;
    double num = 0.0;
    std::string raw;  ///< number lexeme as written
    std::string str;
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> members;

    /** Object member `key`; nullptr when absent or not an object. */
    const JsonValue* find(std::string_view key) const;

    /** A number written as decimal digits that fit a u64. */
    std::optional<std::uint64_t> asU64() const;

    /** Member `key` as a u64 / number / string; nullopt when the
     *  member is absent or of another type. */
    std::optional<std::uint64_t> getU64(std::string_view key) const;
    std::optional<double> getNumber(std::string_view key) const;
    std::optional<std::string> getString(std::string_view key) const;
};

/**
 * Parse `text` as exactly one JSON value.  On failure `*out` is left
 * empty and `*error` (when given) reads "<what> (line L, column C)".
 */
bool parseJson(std::string_view text, JsonValue* out,
               std::string* error = nullptr);

/** Decimal digits only (no sign, point or exponent) that fit a u64. */
bool parseU64(std::string_view digits, std::uint64_t* out);

/**
 * Read a JSONL journal.  `record` sees each newline-terminated line
 * that parses, in file order, and returns false to reject it.  An
 * unterminated tail, an unparseable line and a rejected record each
 * count as torn; empty lines are skipped; a missing file is empty.
 * `damaged`, when given, gains "<path>:<line>" (1-based) for each.
 * @return the torn lines
 */
std::uint64_t readJsonl(const std::string& path,
                        const std::function<bool(const JsonValue&)>& record,
                        std::vector<std::string>* damaged = nullptr);

/**
 * Durable append-only JSONL writer (campaign manifests / result
 * streams / the search journal).
 *
 * Guarantees, within POSIX semantics:
 *  - one writer per file: the writer holds an exclusive flock() on its
 *    file for its lifetime, so a second writer on the same journal is
 *    refused (ok() false, openError() says so) instead of interleaving
 *    records;
 *  - a record is staged in one buffer (line + '\n') and pushed through
 *    a single write() loop that retries short writes and EINTR with a
 *    bounded linear backoff, so this writer never *emits* a torn
 *    record — only a crash mid-write can truncate the file tail, which
 *    readJsonl counts as torn;
 *  - a file that ends mid-record (crash debris) gets its line
 *    terminated by the first append, so a resumed writer never glues a
 *    record onto the fragment;
 *  - fsync runs every `syncEvery` records and on demand via sync(), so
 *    the window of journal loss after a SIGKILL is bounded.
 *
 * Not thread-safe; callers serialize (the campaign engine holds a
 * journal mutex).
 */
class JsonlWriter
{
  public:
    /**
     * @param path      output file (created if missing)
     * @param append    append to an existing file vs truncate
     * @param syncEvery fsync cadence in records (0 = only explicit
     *                  sync())
     */
    JsonlWriter(const std::string& path, bool append,
                std::size_t syncEvery = 32);
    ~JsonlWriter();

    JsonlWriter(const JsonlWriter&) = delete;
    JsonlWriter& operator=(const JsonlWriter&) = delete;

    /** Open and every write so far succeeded. */
    bool ok() const { return fd_ >= 0 && !failed_; }

    /** Why the file could not be opened or locked ("" if it was). */
    const std::string& openError() const { return openError_; }

    /**
     * Append one record (a trailing '\n' is added; `line` must not
     * contain one).  @return false if the write ultimately failed —
     * the writer latches failed() and refuses further records.
     */
    bool append(const std::string& line);

    /** Force an fsync now. @return false on failure. */
    bool sync();

    std::uint64_t records() const { return records_; }
    std::uint64_t syncs() const { return syncs_; }

  private:
    int fd_ = -1;
    bool failed_ = false;
    /// The file ended without '\n' when opened (a torn tail).
    bool unterminated_ = false;
    std::string openError_;
    std::size_t syncEvery_;
    std::uint64_t records_ = 0;
    std::uint64_t sinceSync_ = 0;
    std::uint64_t syncs_ = 0;
};

}  // namespace gecko::metrics

#endif  // GECKO_METRICS_JSON_HPP_
