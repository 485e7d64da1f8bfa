#include "pattern/generalize.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

namespace av {

void AppendAtomMerged(std::vector<Atom>& atoms, const Atom& atom) {
  if (atom.kind == AtomKind::kLiteral && !atoms.empty() &&
      atoms.back().kind == AtomKind::kLiteral) {
    atoms.back().lit += atom.lit;
  } else {
    atoms.push_back(atom);
  }
}

ColumnProfile ColumnProfile::Build(ColumnView values,
                                   const GeneralizeConfig& cfg) {
  ColumnProfile p;
  // One tokenize-once pass: distinct values, their row weights and their
  // token runs land in the shared arena representation (the same layout the
  // online validate path matches against).
  p.column_ = TokenizedColumn::Build(values, cfg.max_distinct_values);

  // Group distinct values by shape key.
  std::unordered_map<std::string, size_t> shape_of;
  const size_t n = p.column_.num_distinct();
  for (uint32_t id = 0; id < n; ++id) {
    const std::span<const Token> tokens = p.column_.tokens(id);
    if (tokens.empty()) continue;  // empty values are never conforming
    std::string key = ShapeKey(p.column_.value(id), tokens);
    auto [it, inserted] = shape_of.emplace(std::move(key), p.shapes_.size());
    if (inserted) {
      ShapeGroup g;
      g.proto_value = std::string(p.column_.value(id));
      g.proto_tokens.assign(tokens.begin(), tokens.end());
      g.over_token_limit = g.proto_tokens.size() > cfg.max_tokens;
      p.shapes_.push_back(std::move(g));
    }
    ShapeGroup& g = p.shapes_[it->second];
    g.value_ids.push_back(id);
    g.weight += p.column_.weight(id);
  }

  std::stable_sort(p.shapes_.begin(), p.shapes_.end(),
                   [](const ShapeGroup& a, const ShapeGroup& b) {
                     if (a.weight != b.weight) return a.weight > b.weight;
                     return a.proto_value < b.proto_value;
                   });
  return p;
}

size_t ColumnProfile::dominant_shape() const {
  return shapes_.empty() ? static_cast<size_t>(-1) : 0;
}

namespace {

/// Specificity rank used to order options most-general-first so that caps
/// never drop the general patterns FMDV needs.
int GeneralityRank(const Atom& a) {
  switch (a.kind) {
    case AtomKind::kAnyVar:
      return 0;
    case AtomKind::kAlnumVar:
      return 1;
    case AtomKind::kOtherVar:
      return 1;
    case AtomKind::kDigitsVar:
    case AtomKind::kLettersVar:
    case AtomKind::kNum:
      return 2;
    case AtomKind::kAlnumFix:
    case AtomKind::kLowerVar:
    case AtomKind::kUpperVar:
      return 3;
    case AtomKind::kDigitsFix:
    case AtomKind::kLettersFix:
      return 4;
    case AtomKind::kLowerFix:
    case AtomKind::kUpperFix:
      return 5;
    case AtomKind::kLiteral:
      return 6;
  }
  return 7;
}

}  // namespace

ShapeOptions::ShapeOptions(const ColumnProfile& profile,
                           const ShapeGroup& group,
                           const GeneralizeConfig& cfg,
                           ShapeScratch* scratch) {
  ShapeScratch own_scratch;
  ShapeScratch& scr = scratch != nullptr ? *scratch : own_scratch;

  n_local_ = group.value_ids.size();
  group_weight_ = group.weight;
  local_weights_.reserve(n_local_);
  for (uint32_t id : group.value_ids) {
    local_weights_.push_back(profile.weight(id));
  }

  const size_t n_pos = group.proto_tokens.size();
  options_.resize(n_pos);

  // Coverage floor for per-position rungs, relative to the whole column.
  const uint64_t column_total = profile.total_weight();
  const uint64_t min_rung_weight = std::max<uint64_t>(
      cfg.min_cover_values,
      static_cast<uint64_t>(cfg.coverage_frac *
                            static_cast<double>(column_total)));

  if (scr.value_slots.size() < n_local_) scr.value_slots.resize(n_local_);

  // Interns (kind, len) into the pooled lens accumulator.
  const auto len_acc_slot = [&scr](uint32_t kind, uint32_t len) {
    const uint64_t key = (static_cast<uint64_t>(kind) << 32) | len;
    auto [it, inserted] =
        scr.len_slot.emplace(key, static_cast<uint32_t>(scr.lens.size()));
    if (inserted) scr.lens.push_back({kind, len, 0, -1});
    return static_cast<int32_t>(it->second);
  };

  for (size_t pos = 0; pos < n_pos; ++pos) {
    const TokenClass proto_cls = group.proto_tokens[pos].cls;
    std::vector<Option>& opts = options_[pos];

    if (proto_cls == TokenClass::kSymbol) {
      Option o;
      o.atom = Atom::Literal(std::string(
          TokenText(group.proto_value, group.proto_tokens[pos])));
      o.mask = Bitset(n_local_, true);
      o.weight = group_weight_;
      AppendAtomText(o.atom, &o.text);
      AtomKeyCoeffs(o.atom, &o.key_mul, &o.key_add);
      opts.push_back(std::move(o));
      continue;
    }

    // Gather pass: per-value facts at this position — class presence
    // weights plus interned per-text / per-length weight accumulators. No
    // bitmask is touched here; masks are built only for the options that
    // actually survive selection, in the fill pass below. All tables come
    // from the scratch arena (clears retain capacity across positions,
    // groups and columns).
    scr.text_slot.clear();
    scr.len_slot.clear();
    scr.texts.clear();
    scr.lens.clear();
    bool any_mixed_chunk = false;
    uint64_t digits_weight = 0;
    uint64_t letters_weight = 0;
    uint64_t lower_weight = 0;
    uint64_t upper_weight = 0;

    for (size_t i = 0; i < n_local_; ++i) {
      const uint32_t id = group.value_ids[i];
      const std::string_view value = profile.value(id);
      const Token& tok = profile.tokens(id)[pos];
      const uint64_t w = local_weights_[i];
      ShapeScratch::ValueSlots& vs = scr.value_slots[i];
      vs = ShapeScratch::ValueSlots{};

      const std::string_view text = TokenText(value, tok);
      auto [text_it, text_new] = scr.text_slot.emplace(
          text, static_cast<uint32_t>(scr.texts.size()));
      if (text_new) scr.texts.push_back({text, 0, -1});
      scr.texts[text_it->second].weight += w;
      vs.text = static_cast<int32_t>(text_it->second);

      if (tok.cls == TokenClass::kDigits) {
        digits_weight += w;
        vs.flags |= ShapeScratch::kIsDigits;
      } else if (tok.cls == TokenClass::kLetters) {
        letters_weight += w;
        vs.flags |= ShapeScratch::kIsLetters;
        if (TokenIsLower(value, tok)) {
          lower_weight += w;
          vs.flags |= ShapeScratch::kIsLower;
        } else if (TokenIsUpper(value, tok)) {
          upper_weight += w;
          vs.flags |= ShapeScratch::kIsUpper;
        }
      } else if (tok.cls == TokenClass::kAlnum) {
        any_mixed_chunk = true;
      }

      if (IsChunk(tok.cls)) {
        vs.len_all = len_acc_slot(0, tok.len);
        scr.lens[vs.len_all].weight += w;
        if (tok.cls == TokenClass::kDigits) {
          vs.len_cls = len_acc_slot(1, tok.len);
          scr.lens[vs.len_cls].weight += w;
        } else if (tok.cls == TokenClass::kLetters) {
          vs.len_cls = len_acc_slot(2, tok.len);
          scr.lens[vs.len_cls].weight += w;
          if (vs.flags & ShapeScratch::kIsLower) {
            vs.len_case = len_acc_slot(3, tok.len);
            scr.lens[vs.len_case].weight += w;
          } else if (vs.flags & ShapeScratch::kIsUpper) {
            vs.len_case = len_acc_slot(4, tok.len);
            scr.lens[vs.len_case].weight += w;
          }
        }
      }
    }

    const bool mixed_position =
        any_mixed_chunk || (digits_weight > 0 && letters_weight > 0);

    // Emission: options are appended in the same order as always (class
    // rungs, fixed-length rungs, const rungs) with empty masks; the fill
    // pass afterwards sets the bits of every selected option in one sweep.
    int32_t opt_digits = -1;
    int32_t opt_letters = -1;
    int32_t opt_lower = -1;
    int32_t opt_upper = -1;
    bool fill_masks = false;

    const auto emit_class_var = [&](AtomKind kind, uint64_t weight) {
      Option o;
      o.atom = Atom::Var(kind);
      o.mask = Bitset(n_local_);
      o.weight = weight;
      const int32_t at = static_cast<int32_t>(opts.size());
      opts.push_back(std::move(o));
      fill_masks = true;
      return at;
    };
    const auto emit_full = [&](Atom atom) {
      Option o;
      o.atom = std::move(atom);
      o.mask = Bitset(n_local_, true);
      o.weight = group_weight_;
      opts.push_back(std::move(o));
    };

    // Selects up to `cap` accumulators from `scr.order` (already filtered),
    // sorted most-weight-first with `tie` breaking equal weights.
    const auto take_sorted = [&scr](size_t cap, const auto& less) {
      std::sort(scr.order.begin(), scr.order.end(), less);
      if (scr.order.size() > cap) scr.order.resize(cap);
    };

    const auto emit_len_rungs = [&](uint32_t kind, AtomKind atom_kind) {
      scr.order.clear();
      for (uint32_t s = 0; s < scr.lens.size(); ++s) {
        if (scr.lens[s].kind == kind &&
            scr.lens[s].weight >= min_rung_weight) {
          scr.order.push_back(s);
        }
      }
      take_sorted(cfg.max_len_options, [&scr](uint32_t a, uint32_t b) {
        if (scr.lens[a].weight != scr.lens[b].weight) {
          return scr.lens[a].weight > scr.lens[b].weight;
        }
        return scr.lens[a].len < scr.lens[b].len;
      });
      for (const uint32_t s : scr.order) {
        ShapeScratch::LenAcc& acc = scr.lens[s];
        acc.option = static_cast<int32_t>(opts.size());
        Option o;
        o.atom = Atom::Fixed(atom_kind, acc.len);
        o.mask = Bitset(n_local_);
        o.weight = acc.weight;
        opts.push_back(std::move(o));
        fill_masks = true;
      }
    };

    if (proto_cls == TokenClass::kOther) {
      emit_full(Atom::Var(AtomKind::kOtherVar));
    } else {
      // Variable-length class rungs.
      if (digits_weight >= min_rung_weight) {
        opt_digits = emit_class_var(AtomKind::kDigitsVar, digits_weight);
      }
      if (letters_weight >= min_rung_weight) {
        opt_letters = emit_class_var(AtomKind::kLettersVar, letters_weight);
      }
      if (lower_weight >= min_rung_weight) {
        opt_lower = emit_class_var(AtomKind::kLowerVar, lower_weight);
      }
      if (upper_weight >= min_rung_weight) {
        opt_upper = emit_class_var(AtomKind::kUpperVar, upper_weight);
      }
      if (mixed_position) {
        emit_full(Atom::Var(AtomKind::kAlnumVar));
      }

      // Fixed-length class rungs (top max_len_options by weight).
      emit_len_rungs(1, AtomKind::kDigitsFix);
      emit_len_rungs(2, AtomKind::kLettersFix);
      emit_len_rungs(3, AtomKind::kLowerFix);
      emit_len_rungs(4, AtomKind::kUpperFix);
      if (mixed_position) emit_len_rungs(0, AtomKind::kAlnumFix);
    }

    // Const rungs (top max_const_options by weight).
    {
      scr.order.clear();
      for (uint32_t s = 0; s < scr.texts.size(); ++s) {
        if (scr.texts[s].weight >= min_rung_weight &&
            scr.texts[s].text.size() <= cfg.max_literal_len) {
          scr.order.push_back(s);
        }
      }
      take_sorted(cfg.max_const_options, [&scr](uint32_t a, uint32_t b) {
        if (scr.texts[a].weight != scr.texts[b].weight) {
          return scr.texts[a].weight > scr.texts[b].weight;
        }
        return scr.texts[a].text < scr.texts[b].text;
      });
      for (const uint32_t s : scr.order) {
        ShapeScratch::TextAcc& acc = scr.texts[s];
        acc.option = static_cast<int32_t>(opts.size());
        Option o;
        o.atom = Atom::Literal(std::string(acc.text));
        o.mask = Bitset(n_local_);
        o.weight = acc.weight;
        opts.push_back(std::move(o));
        fill_masks = true;
      }
    }

    // Fill pass: one sweep over the group's values sets the bits of every
    // selected option, using the slots recorded by the gather pass (no
    // re-hashing, no re-classification).
    if (fill_masks) {
      for (size_t i = 0; i < n_local_; ++i) {
        const ShapeScratch::ValueSlots& vs = scr.value_slots[i];
        if (opt_digits >= 0 && (vs.flags & ShapeScratch::kIsDigits)) {
          opts[static_cast<size_t>(opt_digits)].mask.Set(i);
        }
        if (opt_letters >= 0 && (vs.flags & ShapeScratch::kIsLetters)) {
          opts[static_cast<size_t>(opt_letters)].mask.Set(i);
        }
        if (opt_lower >= 0 && (vs.flags & ShapeScratch::kIsLower)) {
          opts[static_cast<size_t>(opt_lower)].mask.Set(i);
        }
        if (opt_upper >= 0 && (vs.flags & ShapeScratch::kIsUpper)) {
          opts[static_cast<size_t>(opt_upper)].mask.Set(i);
        }
        const auto set_option = [&](int32_t option) {
          if (option >= 0) opts[static_cast<size_t>(option)].mask.Set(i);
        };
        if (vs.text >= 0) {
          set_option(scr.texts[static_cast<size_t>(vs.text)].option);
        }
        if (vs.len_all >= 0) {
          set_option(scr.lens[static_cast<size_t>(vs.len_all)].option);
        }
        if (vs.len_cls >= 0) {
          set_option(scr.lens[static_cast<size_t>(vs.len_cls)].option);
        }
        if (vs.len_case >= 0) {
          set_option(scr.lens[static_cast<size_t>(vs.len_case)].option);
        }
      }
    }

    // Deterministic most-general-first order.
    std::stable_sort(opts.begin(), opts.end(),
                     [](const Option& a, const Option& b) {
                       const int ra = GeneralityRank(a.atom);
                       const int rb = GeneralityRank(b.atom);
                       if (ra != rb) return ra < rb;
                       if (a.weight != b.weight) return a.weight > b.weight;
                       return false;
                     });
    for (Option& o : opts) {
      AppendAtomText(o.atom, &o.text);
      AtomKeyCoeffs(o.atom, &o.key_mul, &o.key_add);
    }
  }
}

void ShapeOptions::EnumerateUnion(
    uint64_t min_weight, size_t max_patterns,
    const std::function<void(Pattern&&, uint64_t)>& cb) const {
  UnionDfs(min_weight, max_patterns,
           [&](const std::vector<const Option*>& chosen, uint64_t weight) {
             std::vector<Atom> atoms;
             atoms.reserve(chosen.size());
             for (const Option* o : chosen) AppendAtomMerged(atoms, o->atom);
             cb(Pattern(std::move(atoms)), weight);
           });
}

void ShapeOptions::EnumerateHypotheses(
    size_t max_patterns, const std::function<void(Pattern&&)>& cb) const {
  EnumerateHypothesesRange(0, options_.size(), max_patterns, cb);
}

void ShapeOptions::EnumerateHypothesesRange(
    size_t begin, size_t end, size_t max_patterns,
    const std::function<void(Pattern&&)>& cb) const {
  if (begin >= end || end > options_.size()) return;
  // Hypotheses must cover every value in the group: full-mask options only.
  std::vector<std::vector<const Option*>> full(end - begin);
  for (size_t pos = begin; pos < end; ++pos) {
    for (const Option& o : options_[pos]) {
      if (o.weight == group_weight_) full[pos - begin].push_back(&o);
    }
    if (full[pos - begin].empty()) return;  // no consistent hypothesis
  }
  const size_t n = end - begin;
  std::vector<const Option*> chosen(n, nullptr);
  size_t emitted = 0;
  std::function<void(size_t)> dfs = [&](size_t pos) {
    if (emitted >= max_patterns) return;
    if (pos == n) {
      std::vector<Atom> atoms;
      atoms.reserve(n);
      for (const Option* o : chosen) AppendAtomMerged(atoms, o->atom);
      cb(Pattern(std::move(atoms)));
      ++emitted;
      return;
    }
    for (const Option* o : full[pos]) {
      if (emitted >= max_patterns) return;
      chosen[pos] = o;
      dfs(pos + 1);
    }
  };
  dfs(0);
}

std::vector<GeneratedPattern> GeneratePatterns(ColumnView values,
                                               const GeneralizeConfig& cfg) {
  std::vector<GeneratedPattern> out;
  const ColumnProfile profile = ColumnProfile::Build(values, cfg);
  const uint64_t total = profile.total_weight();
  if (total == 0) return out;
  const uint64_t min_weight = std::max<uint64_t>(
      cfg.min_cover_values,
      static_cast<uint64_t>(cfg.coverage_frac * static_cast<double>(total)));
  ShapeScratch scratch;  // shared across the column's groups
  for (const ShapeGroup& group : profile.shapes()) {
    if (group.over_token_limit) continue;
    if (out.size() >= cfg.max_patterns_per_column) break;
    ShapeOptions options(profile, group, cfg, &scratch);
    options.EnumerateUnion(min_weight,
                           cfg.max_patterns_per_column - out.size(),
                           [&](Pattern&& p, uint64_t weight) {
                             out.push_back({std::move(p), weight});
                           });
  }
  std::sort(out.begin(), out.end(),
            [](const GeneratedPattern& a, const GeneratedPattern& b) {
              if (a.matches != b.matches) return a.matches > b.matches;
              return a.pattern.ToString() < b.pattern.ToString();
            });
  return out;
}

size_t ShapeOptions::NumHypothesisOptionsAt(size_t pos) const {
  size_t count = 0;
  for (const Option& o : options_[pos]) {
    if (o.weight == group_weight_) ++count;
  }
  return count;
}

}  // namespace av
