#include "corpus/csv.h"

#include <algorithm>
#include <filesystem>

#include "common/durable_file.h"
#include "corpus/format.h"

namespace av {

namespace {

/// Index of the first byte of `p[0,n)` equal to any of set[0..3], or `n`.
/// Needles may repeat (pass the same byte four times to search for one).
size_t FindAnyOf4(const char* p, size_t n, const unsigned char set[4]) {
  for (size_t i = 0; i < n; ++i) {
    const unsigned char c = static_cast<unsigned char>(p[i]);
    if (c == set[0] || c == set[1] || c == set[2] || c == set[3]) return i;
  }
  return n;
}

}  // namespace

void IncrementalCsvParser::EndField() {
  row_.push_back(std::move(field_));
  field_.clear();
  field_started_ = false;
}

void IncrementalCsvParser::EndRow() {
  EndField();
  ready_.push_back(std::move(row_));
  row_.clear();
  NotePeak();
}

void IncrementalCsvParser::Consume(char c) {
  if (quote_pending_) {
    // A '"' inside quotes: doubled means an escaped quote, anything else
    // means the quote closed and `c` is processed in the unquoted state.
    quote_pending_ = false;
    if (c == '"') {
      field_.push_back('"');
      ++buffered_;
      return;
    }
    in_quotes_ = false;
  }
  if (in_quotes_) {
    if (c == '"') {
      quote_pending_ = true;
    } else {
      field_.push_back(c);
      ++buffered_;
    }
    return;
  }
  if (c == '"' && !field_started_) {
    in_quotes_ = true;
    field_started_ = true;
    return;
  }
  if (c == sep_) {
    EndField();
    return;
  }
  if (c == '\r') return;  // tolerate CR of CRLF
  if (c == '\n') {
    EndRow();
    return;
  }
  field_.push_back(c);
  field_started_ = true;
  ++buffered_;
}

void IncrementalCsvParser::Feed(std::string_view bytes) {
  size_t i = 0;
  if (at_start_) {
    static constexpr char kBom[3] = {'\xEF', '\xBB', '\xBF'};
    while (i < bytes.size() && bom_hold_.size() < 3 &&
           bytes[i] == kBom[bom_hold_.size()]) {
      bom_hold_.push_back(bytes[i]);
      ++i;
    }
    if (bom_hold_.size() == 3) {
      at_start_ = false;  // full BOM: dropped
      bom_hold_.clear();
    } else if (i < bytes.size()) {
      at_start_ = false;  // diverged: not a BOM, replay the held prefix
      std::string held;
      held.swap(bom_hold_);
      for (char c : held) Consume(c);
    } else {
      return;  // whole slice absorbed into the BOM lookahead
    }
  }
  // Bulk path: between structural bytes the parser only ever appends, so
  // scan ahead for the next byte that can change state (sep/quote/CR/LF in
  // the unquoted state, '"' alone inside quotes), append the clean span in
  // one go, and run just the structural byte through the per-byte state
  // machine. quote_pending_ resolves on a single byte and stays per-byte.
  // Row/field boundaries and buffered_ accounting are identical to the pure
  // per-byte walk whatever the slicing of the input (pinned by the
  // slice-invariance test in corpus_test.cc).
  const unsigned char plain_set[4] = {static_cast<unsigned char>(sep_), '"',
                                      '\n', '\r'};
  static constexpr unsigned char kQuoteSet[4] = {'"', '"', '"', '"'};
  while (i < bytes.size()) {
    if (!quote_pending_) {
      const char* p = bytes.data() + i;
      const size_t len = FindAnyOf4(p, bytes.size() - i,
                                    in_quotes_ ? kQuoteSet : plain_set);
      if (len > 0) {
        field_.append(p, len);
        buffered_ += len;
        if (!in_quotes_) field_started_ = true;
        i += len;
        if (i == bytes.size()) break;
      }
    }
    Consume(bytes[i]);
    ++i;
  }
  NotePeak();
}

Status IncrementalCsvParser::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  if (at_start_) {
    // Document shorter than the BOM lookahead: replay what was held.
    at_start_ = false;
    std::string held;
    held.swap(bom_hold_);
    for (char c : held) Consume(c);
  }
  if (quote_pending_) {
    quote_pending_ = false;
    in_quotes_ = false;  // the document ended right on the closing quote
  }
  if (in_quotes_) {
    return Status::Corruption("unterminated quoted field in CSV");
  }
  if (field_started_ || !row_.empty() || !field_.empty()) EndRow();
  return Status::OK();
}

bool IncrementalCsvParser::NextRow(std::vector<std::string>* row) {
  if (ready_.empty()) return false;
  *row = std::move(ready_.front());
  ready_.pop_front();
  for (const std::string& f : *row) buffered_ -= f.size();
  return true;
}

Result<std::vector<std::vector<std::string>>> ParseCsv(std::string_view text,
                                                       char sep) {
  IncrementalCsvParser parser(sep);
  parser.Feed(text);
  AV_RETURN_NOT_OK(parser.Finish());
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  while (parser.NextRow(&row)) rows.push_back(std::move(row));
  return rows;
}

Result<Table> TableFromCsvSource(std::string_view name, ByteSource& src,
                                 char sep, CsvStreamStats* stats) {
  IncrementalCsvParser parser(sep);
  Table table;
  table.name = std::string(name);
  bool have_header = false;
  std::vector<std::string> row;

  // Drains completed rows into the table so the parser only ever holds the
  // partial row that straddles the current read block.
  auto drain = [&] {
    while (parser.NextRow(&row)) {
      if (!have_header) {
        have_header = true;
        table.columns.resize(row.size());
        for (size_t c = 0; c < row.size(); ++c) {
          table.columns[c].table_name = table.name;
          table.columns[c].name = std::move(row[c]);
        }
        continue;
      }
      for (size_t c = 0; c < table.columns.size(); ++c) {
        table.columns[c].values.push_back(c < row.size() ? std::move(row[c])
                                                         : std::string());
      }
    }
  };

  std::string buf(size_t{64} << 10, '\0');
  for (;;) {
    auto got = src.Read(buf.data(), buf.size());
    if (!got.ok()) return got.status();
    if (*got == 0) break;
    if (stats) stats->bytes_read += *got;
    parser.Feed(std::string_view(buf.data(), *got));
    drain();
  }
  AV_RETURN_NOT_OK(parser.Finish());
  drain();
  if (stats) stats->peak_buffered_bytes = parser.peak_buffered_bytes();
  if (!have_header) {
    return Status::InvalidArgument("CSV has no header row");
  }
  return table;
}

std::string WriteCsv(const std::vector<std::vector<std::string>>& rows,
                     char sep) {
  std::string out;
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(sep);
      const std::string& f = row[i];
      const bool needs_quote =
          f.find(sep) != std::string::npos ||
          f.find('"') != std::string::npos ||
          f.find('\n') != std::string::npos ||
          f.find('\r') != std::string::npos;
      if (needs_quote) {
        out.push_back('"');
        for (char c : f) {
          if (c == '"') out.push_back('"');
          out.push_back(c);
        }
        out.push_back('"');
      } else {
        out += f;
      }
    }
    out.push_back('\n');
  }
  return out;
}

Result<Table> TableFromCsv(std::string_view name, std::string_view text,
                           char sep) {
  auto rows_or = ParseCsv(text, sep);
  if (!rows_or.ok()) return rows_or.status();
  const auto& rows = rows_or.value();
  if (rows.empty()) {
    return Status::InvalidArgument("CSV has no header row");
  }
  Table table;
  table.name = std::string(name);
  const auto& header = rows.front();
  table.columns.resize(header.size());
  for (size_t c = 0; c < header.size(); ++c) {
    table.columns[c].table_name = table.name;
    table.columns[c].name = header[c];
    table.columns[c].values.reserve(rows.size() - 1);
  }
  for (size_t r = 1; r < rows.size(); ++r) {
    for (size_t c = 0; c < header.size(); ++c) {
      table.columns[c].values.push_back(c < rows[r].size() ? rows[r][c] : "");
    }
  }
  return table;
}

std::string TableToCsv(const Table& table, char sep) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header;
  for (const Column& c : table.columns) header.push_back(c.name);
  rows.push_back(std::move(header));
  const size_t n = table.num_rows();
  for (size_t r = 0; r < n; ++r) {
    std::vector<std::string> row;
    row.reserve(table.columns.size());
    for (const Column& c : table.columns) {
      row.push_back(r < c.values.size() ? c.values[r] : "");
    }
    rows.push_back(std::move(row));
  }
  return WriteCsv(rows, sep);
}

Result<Corpus> LoadCorpusFromDir(const std::string& dir) {
  // CSV-only legacy entry point; listing, ordering and the streaming load
  // all live in the format registry now (corpus/format.h).
  return LoadLakeFromDir(dir, LakeFormat::kCsv);
}

Status SaveCorpusToDir(const Corpus& corpus, const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create directory " + dir);
  for (const Table& t : corpus.tables()) {
    const std::string path = dir + "/" + t.name + ".csv";
    // Atomic, error-checked write (the old ofstream path never looked at
    // the stream state, so a full disk truncated tables silently). CSV is
    // an interchange format other tools read, so no checksum trailer.
    DurableFileWriter out;
    AV_RETURN_NOT_OK(out.Open(path, {.checksum = false, .sync = true}));
    AV_RETURN_NOT_OK(out.Append(TableToCsv(t)));
    AV_RETURN_NOT_OK(out.Commit());
  }
  return Status::OK();
}

}  // namespace av
