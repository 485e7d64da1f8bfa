#include "pattern/pattern.h"

#include <algorithm>

#include "common/hash.h"

namespace av {

namespace {

[[gnu::always_inline]] inline std::string_view AtomTag(AtomKind k) {
  switch (k) {
    case AtomKind::kLiteral:
      return "";
    case AtomKind::kDigitsFix:
    case AtomKind::kDigitsVar:
      return "digit";
    case AtomKind::kNum:
      return "num";
    case AtomKind::kLettersFix:
    case AtomKind::kLettersVar:
      return "letter";
    case AtomKind::kLowerFix:
    case AtomKind::kLowerVar:
      return "lower";
    case AtomKind::kUpperFix:
    case AtomKind::kUpperVar:
      return "upper";
    case AtomKind::kAlnumFix:
    case AtomKind::kAlnumVar:
      return "alnum";
    case AtomKind::kOtherVar:
      return "other";
    case AtomKind::kAnyVar:
      return "any";
  }
  return "?";
}

bool IsFixKind(AtomKind k) {
  return k == AtomKind::kDigitsFix || k == AtomKind::kLettersFix ||
         k == AtomKind::kAlnumFix || k == AtomKind::kLowerFix ||
         k == AtomKind::kUpperFix;
}

/// The one renderer of an atom's canonical bytes: feeds them, in order, to
/// `put(char)`. ToString appends them to a string; AtomKeyCoeffs folds them
/// into its hash map without allocating. A literal renders byte by byte, so
/// adjacent literals render as the concatenation of their parts. Forced
/// inline, like AtomTag: FMDV keys every hypothesis through AtomKeyCoeffs,
/// and out-of-line calls there made PatternKey ~20% slower.
template <class Put>
[[gnu::always_inline]] inline void RenderAtom(const Atom& a, const Put& put) {
  const auto put_str = [&put](std::string_view s) {
    for (const char c : s) put(c);
  };
  switch (a.kind) {
    case AtomKind::kLiteral:
      for (const char c : a.lit) {
        if (c == '<' || c == '\\') put('\\');
        put(c);
      }
      break;
    case AtomKind::kDigitsFix:
    case AtomKind::kLettersFix:
    case AtomKind::kLowerFix:
    case AtomKind::kUpperFix:
    case AtomKind::kAlnumFix: {
      put('<');
      put_str(AtomTag(a.kind));
      put('>');
      put('{');
      // Decimal digits of a.len, most significant first.
      char digits[10];
      int n = 0;
      uint32_t len = a.len;
      do {
        digits[n++] = static_cast<char>('0' + len % 10);
        len /= 10;
      } while (len != 0);
      while (n > 0) put(digits[--n]);
      put('}');
      break;
    }
    case AtomKind::kNum:
      put_str("<num>");
      break;
    case AtomKind::kDigitsVar:
    case AtomKind::kLettersVar:
    case AtomKind::kLowerVar:
    case AtomKind::kUpperVar:
    case AtomKind::kAlnumVar:
    case AtomKind::kOtherVar:
    case AtomKind::kAnyVar:
      put('<');
      put_str(AtomTag(a.kind));
      put('>');
      put('+');
      break;
  }
}

}  // namespace

void AppendAtomText(const Atom& a, std::string* out) {
  RenderAtom(a, [out](char c) { out->push_back(c); });
}

std::string Pattern::ToString() const {
  std::string out;
  for (const Atom& a : atoms_) AppendAtomText(a, &out);
  return out;
}

Result<Pattern> Pattern::Parse(std::string_view text) {
  std::vector<Atom> atoms;
  std::string lit;
  auto flush_lit = [&] {
    if (!lit.empty()) {
      atoms.push_back(Atom::Literal(lit));
      lit.clear();
    }
  };
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (c == '\\') {
      if (i + 1 >= n) {
        return Status::InvalidArgument("dangling escape in pattern");
      }
      lit.push_back(text[i + 1]);
      i += 2;
    } else if (c == '<') {
      size_t close = text.find('>', i);
      if (close == std::string_view::npos) {
        return Status::InvalidArgument("unterminated '<' in pattern");
      }
      std::string_view tag = text.substr(i + 1, close - i - 1);
      i = close + 1;
      bool var = false;
      uint32_t len = 0;
      if (i < n && text[i] == '+') {
        var = true;
        ++i;
      } else if (i < n && text[i] == '{') {
        size_t close_brace = text.find('}', i);
        if (close_brace == std::string_view::npos) {
          return Status::InvalidArgument("unterminated '{' in pattern");
        }
        std::string_view num = text.substr(i + 1, close_brace - i - 1);
        if (num.empty()) {
          return Status::InvalidArgument("empty length in pattern");
        }
        for (char d : num) {
          if (d < '0' || d > '9') {
            return Status::InvalidArgument("non-numeric length in pattern");
          }
          len = len * 10 + static_cast<uint32_t>(d - '0');
        }
        i = close_brace + 1;
      } else if (tag != "num") {
        return Status::InvalidArgument("token tag must carry '+' or '{k}'");
      }
      flush_lit();
      if (tag == "num") {
        if (var || len != 0) {
          return Status::InvalidArgument("<num> takes no quantifier");
        }
        atoms.push_back(Atom::Var(AtomKind::kNum));
      } else if (tag == "digit") {
        atoms.push_back(var ? Atom::Var(AtomKind::kDigitsVar)
                            : Atom::Fixed(AtomKind::kDigitsFix, len));
      } else if (tag == "letter") {
        atoms.push_back(var ? Atom::Var(AtomKind::kLettersVar)
                            : Atom::Fixed(AtomKind::kLettersFix, len));
      } else if (tag == "lower") {
        atoms.push_back(var ? Atom::Var(AtomKind::kLowerVar)
                            : Atom::Fixed(AtomKind::kLowerFix, len));
      } else if (tag == "upper") {
        atoms.push_back(var ? Atom::Var(AtomKind::kUpperVar)
                            : Atom::Fixed(AtomKind::kUpperFix, len));
      } else if (tag == "alnum") {
        atoms.push_back(var ? Atom::Var(AtomKind::kAlnumVar)
                            : Atom::Fixed(AtomKind::kAlnumFix, len));
      } else if (tag == "other") {
        if (!var) {
          return Status::InvalidArgument("<other> must be <other>+");
        }
        atoms.push_back(Atom::Var(AtomKind::kOtherVar));
      } else if (tag == "any") {
        if (!var) {
          return Status::InvalidArgument("<any> must be <any>+");
        }
        atoms.push_back(Atom::Var(AtomKind::kAnyVar));
      } else {
        return Status::InvalidArgument("unknown token tag <" +
                                       std::string(tag) + ">");
      }
      if (IsFixKind(atoms.back().kind) && atoms.back().len == 0) {
        return Status::InvalidArgument("fixed-length token needs length >= 1");
      }
    } else {
      lit.push_back(c);
      ++i;
    }
  }
  flush_lit();
  return Pattern(std::move(atoms));
}

void Pattern::Append(const Pattern& other) {
  for (const Atom& a : other.atoms_) {
    if (a.kind == AtomKind::kLiteral && !atoms_.empty() &&
        atoms_.back().kind == AtomKind::kLiteral) {
      atoms_.back().lit += a.lit;
    } else {
      atoms_.push_back(a);
    }
  }
}

int Pattern::SpecificityScore() const {
  int score = 0;
  for (const Atom& a : atoms_) {
    switch (a.kind) {
      case AtomKind::kLiteral:
        // Constants are the most specific rung; weight per covered character
        // so splitting a literal across atoms never looks more specific.
        score += 4 + 4 * static_cast<int>(std::min<size_t>(a.lit.size(), 32));
        break;
      case AtomKind::kLowerFix:
      case AtomKind::kUpperFix:
        score += 5;
        break;
      case AtomKind::kDigitsFix:
      case AtomKind::kLettersFix:
        score += 4;
        break;
      case AtomKind::kAlnumFix:
      case AtomKind::kLowerVar:
      case AtomKind::kUpperVar:
        score += 3;
        break;
      case AtomKind::kDigitsVar:
      case AtomKind::kLettersVar:
      case AtomKind::kNum:
        score += 2;
        break;
      case AtomKind::kAlnumVar:
      case AtomKind::kOtherVar:
        score += 1;
        break;
      case AtomKind::kAnyVar:
        score += 0;
        break;
    }
  }
  return score;
}

void AtomKeyCoeffs(const Atom& a, uint64_t* mul, uint64_t* add) {
  // Folds the atom's canonical bytes into the affine map (m, v): folding
  // them into a hash state h yields h * m + v.
  uint64_t m = 1;
  uint64_t v = 0;
  RenderAtom(a, [&m, &v](char c) {
    m *= kPolyMul;
    v = v * kPolyMul + static_cast<unsigned char>(c);
  });
  *mul = m;
  *add = v;
}

uint64_t PatternKey(const Pattern& p) {
  uint64_t h = kPolySeed;
  for (const Atom& a : p.atoms()) {
    uint64_t mul = 1;
    uint64_t add = 0;
    AtomKeyCoeffs(a, &mul, &add);
    h = h * mul + add;
  }
  return h;
}

uint64_t PatternHash(const Pattern& p) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Atom& a : p.atoms()) {
    h = HashCombine(h, static_cast<uint64_t>(a.kind));
    h = HashCombine(h, a.len);
    h = HashCombine(h, Fnv1a64(a.lit));
  }
  return h;
}

}  // namespace av
