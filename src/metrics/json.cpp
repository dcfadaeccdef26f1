#include "metrics/json.hpp"

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

namespace gecko::metrics {

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
roundTripNumber(double v)
{
    char buf[64];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

const JsonValue*
JsonValue::find(std::string_view key) const
{
    for (const auto& [name, value] : members)
        if (name == key)
            return &value;
    return nullptr;
}

std::optional<std::uint64_t>
JsonValue::asU64() const
{
    std::uint64_t v = 0;
    if (type != kNumber || !parseU64(raw, &v))
        return std::nullopt;
    return v;
}

std::optional<std::uint64_t>
JsonValue::getU64(std::string_view key) const
{
    const JsonValue* v = find(key);
    return v ? v->asU64() : std::nullopt;
}

std::optional<double>
JsonValue::getNumber(std::string_view key) const
{
    const JsonValue* v = find(key);
    if (!v || v->type != kNumber)
        return std::nullopt;
    return v->num;
}

std::optional<std::string>
JsonValue::getString(std::string_view key) const
{
    const JsonValue* v = find(key);
    if (!v || v->type != kString)
        return std::nullopt;
    return v->str;
}

bool
parseU64(std::string_view digits, std::uint64_t* out)
{
    const char* end = digits.data() + digits.size();
    const auto [ptr, ec] = std::from_chars(digits.data(), end, *out);
    return ec == std::errc() && ptr == end;
}

namespace {

class Parser
{
  public:
    Parser(std::string_view text, std::string* error)
        : text_(text), error_(error)
    {
    }

    bool parse(JsonValue* out)
    {
        skipWs();
        if (!value(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after the top-level value");
        return true;
    }

  private:
    /// Deeper documents are refused rather than recursed into.
    static constexpr int kMaxDepth = 256;

    bool fail(const std::string& what)
    {
        if (error_ && error_->empty()) {
            std::size_t line = 1, col = 1;
            for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
                if (text_[i] == '\n') {
                    ++line;
                    col = 1;
                } else {
                    ++col;
                }
            }
            std::ostringstream os;
            os << what << " (line " << line << ", column " << col << ")";
            *error_ = os.str();
        }
        return false;
    }

    bool accept(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool digits()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
            ++pos_;
        return pos_ > start;
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool literal(const char* word, JsonValue* out, JsonValue::Type type,
                 bool b)
    {
        std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return fail("invalid literal");
        pos_ += n;
        out->type = type;
        out->b = b;
        return true;
    }

    /** The four hex digits of a \u escape. */
    bool hex4(unsigned* out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        const char* first = text_.data() + pos_;
        const auto [ptr, ec] = std::from_chars(first, first + 4, *out, 16);
        if (ec != std::errc() || ptr != first + 4)
            return fail("invalid \\u escape");
        pos_ += 4;
        return true;
    }

    /** A \u escape (a surrogate pair takes two), appended as UTF-8. */
    bool unicodeEscape(std::string* out)
    {
        unsigned cp = 0;
        if (!hex4(&cp))
            return false;
        if (cp >= 0xdc00 && cp <= 0xdfff)
            return fail("unpaired surrogate in \\u escape");
        if (cp >= 0xd800 && cp <= 0xdbff) {
            unsigned low = 0;
            if (!accept('\\') || !accept('u') || !hex4(&low) ||
                low < 0xdc00 || low > 0xdfff)
                return fail("unpaired surrogate in \\u escape");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
        }
        if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else if (cp < 0x10000) {
            out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else {
            out->push_back(static_cast<char>(0xf0 | (cp >> 18)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        }
        return true;
    }

    bool string(std::string* out)
    {
        if (!accept('"'))
            return fail("expected string");
        out->clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (static_cast<unsigned char>(c) < 0x20) {
                --pos_;
                return fail("unescaped control character in string");
            }
            if (c != '\\') {
                out->push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            switch (text_[pos_++]) {
              case '"': out->push_back('"'); break;
              case '\\': out->push_back('\\'); break;
              case '/': out->push_back('/'); break;
              case 'b': out->push_back('\b'); break;
              case 'f': out->push_back('\f'); break;
              case 'n': out->push_back('\n'); break;
              case 'r': out->push_back('\r'); break;
              case 't': out->push_back('\t'); break;
              case 'u':
                if (!unicodeEscape(out))
                    return false;
                break;
              default:
                return fail("invalid escape sequence");
            }
        }
        if (!accept('"'))
            return fail("unterminated string");
        return true;
    }

    /** -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? */
    bool number(JsonValue* out)
    {
        const std::size_t start = pos_;
        accept('-');
        if (!accept('0') && !digits())
            return fail("malformed number");
        if (accept('.') && !digits())
            return fail("malformed number");
        if (accept('e') || accept('E')) {
            if (!accept('+'))
                accept('-');
            if (!digits())
                return fail("malformed number");
        }
        out->raw = text_.substr(start, pos_ - start);
        out->num = std::strtod(out->raw.c_str(), nullptr);
        if (!std::isfinite(out->num))
            return fail("number out of range");
        out->type = JsonValue::kNumber;
        return true;
    }

    bool value(JsonValue* out)
    {
        if (depth_ >= kMaxDepth)
            return fail("nesting too deep");
        ++depth_;
        const bool ok = nested(out);
        --depth_;
        return ok;
    }

    bool nested(JsonValue* out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        if (accept('{')) {
            out->type = JsonValue::kObject;
            skipWs();
            if (accept('}'))
                return true;
            while (true) {
                skipWs();
                std::string key;
                if (!string(&key))
                    return false;
                if (out->find(key))
                    return fail("duplicate key \"" + key + "\"");
                skipWs();
                if (!accept(':'))
                    return fail("expected ':' after key \"" + key + "\"");
                JsonValue v;
                if (!value(&v))
                    return false;
                out->members.emplace_back(key, std::move(v));
                skipWs();
                if (accept(','))
                    continue;
                if (accept('}'))
                    return true;
                return fail("expected ',' or '}' in object");
            }
        }
        if (accept('[')) {
            out->type = JsonValue::kArray;
            skipWs();
            if (accept(']'))
                return true;
            while (true) {
                JsonValue v;
                if (!value(&v))
                    return false;
                out->arr.push_back(std::move(v));
                skipWs();
                if (accept(','))
                    continue;
                if (accept(']'))
                    return true;
                return fail("expected ',' or ']' in array");
            }
        }
        const char c = text_[pos_];
        if (c == '"') {
            out->type = JsonValue::kString;
            return string(&out->str);
        }
        if (c == 't')
            return literal("true", out, JsonValue::kBool, true);
        if (c == 'f')
            return literal("false", out, JsonValue::kBool, false);
        if (c == 'n')
            return literal("null", out, JsonValue::kNull, false);
        return number(out);
    }

    std::string_view text_;
    std::string* error_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

}  // namespace

bool
parseJson(std::string_view text, JsonValue* out, std::string* error)
{
    JsonValue v;
    if (!Parser(text, error).parse(&v)) {
        *out = JsonValue{};
        return false;
    }
    *out = std::move(v);
    return true;
}

std::uint64_t
readJsonl(const std::string& path,
          const std::function<bool(const JsonValue&)>& record)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;
    // Read raw so a torn tail is detectable: only lines terminated by
    // '\n' are candidates; a trailing fragment is crash damage.
    std::ostringstream all;
    all << in.rdbuf();
    const std::string text = all.str();

    std::uint64_t torn = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            return torn + 1;  // the record the crash interrupted
        const std::string_view line(text.data() + pos, nl - pos);
        pos = nl + 1;
        if (line.empty())
            continue;
        JsonValue v;
        if (!parseJson(line, &v) || !record(v))
            ++torn;
    }
    return torn;
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

JsonlWriter::JsonlWriter(const std::string& path, bool append,
                         std::size_t syncEvery)
    : syncEvery_(syncEvery)
{
    // Never O_TRUNC at open: that would wipe a journal another writer
    // holds before its lock could refuse us.
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) {
        openError_ = "cannot open " + path + ": " + std::strerror(errno);
        return;
    }
    if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
        openError_ = errno == EWOULDBLOCK
                         ? "journal " + path + " is held by another writer"
                         : "cannot lock " + path + ": " + std::strerror(errno);
    } else if (!append) {
        if (::ftruncate(fd_, 0) != 0)
            openError_ = "cannot truncate " + path + ": " + std::strerror(errno);
    } else if (const off_t size = ::lseek(fd_, 0, SEEK_END); size > 0) {
        char last = '\n';
        if (::pread(fd_, &last, 1, size - 1) != 1)
            openError_ = "cannot read " + path + ": " + std::strerror(errno);
        unterminated_ = last != '\n';
    }
    if (!openError_.empty()) {
        ::close(fd_);
        fd_ = -1;
    }
}

JsonlWriter::~JsonlWriter()
{
    if (fd_ >= 0) {
        ::fsync(fd_);
        ::close(fd_);
    }
}

bool
JsonlWriter::append(const std::string& line)
{
    if (!ok())
        return false;
    // Stage the full record — payload plus terminator, after the
    // terminator a torn tail lacks — in one buffer so no code path can
    // write a line without its '\n'.
    std::string record = unterminated_ ? "\n" : "";
    record += line;
    record.push_back('\n');

    const char* p = record.data();
    std::size_t left = record.size();
    int attempt = 0;
    constexpr int kMaxAttempts = 8;
    while (left > 0) {
        ssize_t n = ::write(fd_, p, left);
        if (n == static_cast<ssize_t>(left))
            break;
        if (n < 0 && errno != EINTR && errno != EAGAIN) {
            failed_ = true;
            return false;
        }
        if (n > 0) {
            p += n;
            left -= static_cast<std::size_t>(n);
        }
        if (++attempt > kMaxAttempts) {
            failed_ = true;
            return false;
        }
        // Linear backoff: transient pressure (EINTR storms, a full
        // pipe) gets room to clear before the budget runs out.
        std::this_thread::sleep_for(std::chrono::milliseconds(attempt));
    }
    unterminated_ = false;
    ++records_;
    if (syncEvery_ > 0 && ++sinceSync_ >= syncEvery_)
        return sync();
    return true;
}

bool
JsonlWriter::sync()
{
    if (!ok())
        return false;
    sinceSync_ = 0;
    if (::fsync(fd_) != 0) {
        failed_ = true;
        return false;
    }
    ++syncs_;
    return true;
}

}  // namespace gecko::metrics
