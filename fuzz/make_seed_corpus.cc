// Regenerates the checked-in fuzz seed corpora (fuzz/corpus/{index,ruleset,
// spill,frame}/) from the real writers, so every seed is a well-formed file
// of the current format plus one of the previous (read-compat) format. Run
// from the repo root:
//
//   ./build/make_seed_corpus fuzz/corpus
//
// The seeds are tiny on purpose — libFuzzer mutates fastest over small
// inputs — but exercise every structural feature: multiple entries,
// non-ASCII-free pattern strings, both magics, and the checksum trailer.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/durable_file.h"
#include "core/validation_service.h"
#include "index/pattern_index.h"
#include "index/spill.h"
#include "pattern/pattern.h"
#include "server/protocol.h"

namespace {

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::string Slurp(const std::string& path) {
  auto bytes = av::ReadFileToString(path);
  if (!bytes.ok()) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    std::exit(1);
  }
  return *std::move(bytes);
}

/// Payload of a trailed file (the bytes the previous format consisted of).
std::string StripTrailer(const std::string& bytes) {
  auto len = av::VerifyTrailer(bytes);
  if (!len.ok()) {
    std::fprintf(stderr, "seed has no valid trailer\n");
    std::exit(1);
  }
  return bytes.substr(0, *len);
}

av::ValidationRule MakeRule(const char* pattern, double fpr) {
  av::ValidationRule rule;
  rule.method = av::Method::kFmdvVH;
  rule.fpr_estimate = fpr;
  rule.coverage = 1234;
  rule.train_size = 1000;
  rule.train_nonconforming = 3;
  rule.significance = 0.05;
  rule.pattern = *av::Pattern::Parse(pattern);
  rule.segments = {rule.pattern};
  return rule;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  const std::string root = argc > 1 ? argv[1] : "fuzz/corpus";
  for (const char* sub : {"index", "ruleset", "spill", "frame", "tokenizer"}) {
    fs::create_directories(fs::path(root) / sub);
  }
  const std::string tmp =
      (fs::temp_directory_path() / "av_seed_tmp.bin").string();

  // ------------------------------------------------------------- index
  {
    av::PatternIndex idx;
    idx.Add("<digit>+:<digit>{2}", 0.0);
    idx.Add("<digit>+:<digit>{2}", 0.25);
    idx.Add("Mar <digit>{2} <digit>{4}", 0.5);
    idx.Add("<letter>+", 1.0 / 3.0);
    if (!idx.Save(tmp).ok()) return 1;
    const std::string v3 = Slurp(tmp);
    WriteFile(root + "/index/small_v3.avidx", v3);
    // The same content as the previous, untrailed AVIDX002 format: strip
    // the trailer and regress the version byte.
    std::string v2 = StripTrailer(v3);
    v2[7] = '2';
    WriteFile(root + "/index/small_v2.avidx", v2);
    av::PatternIndex empty;
    if (!empty.Save(tmp).ok()) return 1;
    WriteFile(root + "/index/empty_v3.avidx", Slurp(tmp));
  }

  // ----------------------------------------------------------- ruleset
  {
    av::ValidationService service(nullptr, {});
    service.Upsert("order_date", MakeRule("Mar <digit>{2} <digit>{4}", 0.01));
    service.Upsert("ticket_id", MakeRule("<digit>+:<digit>{2}", 0.002));
    if (!service.Save(tmp).ok()) return 1;
    const std::string v2 = Slurp(tmp);
    WriteFile(root + "/ruleset/small_v2.avrs", v2);
    // Previous untrailed AVRULESET1 text format: payload with the magic
    // token regressed.
    std::string v1 = StripTrailer(v2);
    v1.replace(0, 10, "AVRULESET1");
    WriteFile(root + "/ruleset/small_v1.avrs", v1);
  }

  // ------------------------------------------------------------- spill
  {
    av::SpillRunWriter writer;
    if (!writer.Open(tmp).ok()) return 1;
    for (const char* name :
         {"<digit>+", "<digit>{4}", "<letter>+ <digit>+", "Mar <digit>{2}"}) {
      av::SpillEntry e;
      e.name = name;
      e.key = av::PolyHash64(e.name);
      e.sum_impurity = 0.125;
      e.columns = 7;
      if (!writer.Append(e).ok()) return 1;
    }
    if (!writer.Finish().ok()) return 1;
    WriteFile(root + "/spill/small_v2.avspill", Slurp(tmp));
  }

  // ------------------------------------------------------------- frame
  // fuzz_frame_decoder input: byte 0 selects the Feed slice size, the rest
  // is the AVNET001 transport stream (hello + frames).
  {
    const std::string hello(av::net::kHello, av::net::kHelloSize);

    // A realistic request conversation: VALIDATE, then STATS.
    av::net::WireWriter validate;
    validate.PutStr("order_date");
    validate.PutValues({"Mar 03 2021", "Mar 14 2021", "bogus"});
    std::string convo = "\x07" + hello;
    convo += av::net::EncodeFrame(
        static_cast<uint8_t>(av::net::Opcode::kValidate), validate.str());
    convo += av::net::EncodeFrame(
        static_cast<uint8_t>(av::net::Opcode::kStats), "");
    WriteFile(root + "/frame/validate_stats.avnet", convo);

    // A column-session lifecycle (open / feed / finish), 1-byte slices.
    av::net::WireWriter open;
    open.PutU8(0);
    open.PutStr("ticket_id");
    av::net::WireWriter feed;
    feed.PutU64(1);
    feed.PutValues({"17:02", "9:55"});
    av::net::WireWriter finish;
    finish.PutU64(1);
    std::string session = std::string("\x00", 1) + hello;
    session += av::net::EncodeFrame(
        static_cast<uint8_t>(av::net::Opcode::kSessionOpen), open.str());
    session += av::net::EncodeFrame(
        static_cast<uint8_t>(av::net::Opcode::kSessionFeed), feed.str());
    session += av::net::EncodeFrame(
        static_cast<uint8_t>(av::net::Opcode::kSessionFinish), finish.str());
    WriteFile(root + "/frame/session.avnet", session);

    // Framing-violation seed: good hello, then a zero-length frame.
    std::string zero = "\x10" + hello;
    zero.append(4, '\0');
    WriteFile(root + "/frame/zero_length.avnet", zero);
  }

  // --------------------------------------------------------- tokenizer
  // fuzz_tokenizer input: the raw value bytes. Seeds cover each run class,
  // long runs with class changes at 8/16/32/64-byte offsets, and non-ASCII
  // runs straddling those offsets.
  {
    WriteFile(root + "/tokenizer/date.txt", "9/12/2019 12:01:32 PM");
    WriteFile(root + "/tokenizer/guid.txt",
              "3f2504e0-4f89-11d3-9a0c-0305e82c3301");
    WriteFile(root + "/tokenizer/hostname.txt",
              "serving-endpoint-3.prod.example.com");
    WriteFile(root + "/tokenizer/utf8.txt", "caf\xc3\xa9 cr\xc3\xa8me");
    WriteFile(root + "/tokenizer/long_alnum.txt",
              std::string(15, 'a') + "1" + std::string(16, 'z') + "2" +
                  std::string(31, 'Q'));
    WriteFile(root + "/tokenizer/seam_symbols.txt",
              std::string(15, '7') + "-" + std::string(16, '8') + "." +
                  std::string(32, '9'));
    WriteFile(root + "/tokenizer/nonascii_seam.txt",
              std::string(30, 'x') + std::string(4, '\xc3') +
                  std::string(30, 'y'));
    WriteFile(root + "/tokenizer/boundary_bytes.txt",
              std::string("/0:9@AZ[`az{\x7f\x80\xff") +
                  std::string(1, '\0') + "\x01end");
  }

  std::error_code ec;
  fs::remove(tmp, ec);
  std::printf("seed corpora written under %s\n", root.c_str());
  return 0;
}
