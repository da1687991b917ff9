// Client-observed history of one benchmark run and its independent check.
//
// The history holds only what crossed the client boundary: the initial
// records handed to Load, every committed transaction's reads (value seen,
// or "missing") and writes in program order with its Begin timestamp, and
// the values read back through the proxy after the run drained.
//
// The check replays the committed transactions one at a time, in Begin
// timestamp order (MVTSO's serialization order), against a plain map seeded
// with the initial records applied in order (a later duplicate key wins).
// Every observed read must equal the map's value, except a read of a key the
// transaction already wrote, which must equal that write. Every read-back
// value must equal the replay's final map.
#ifndef E2EBENCH_SRC_HISTORY_H_
#define E2EBENCH_SRC_HISTORY_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace e2e {

struct Op {
  bool write = false;
  bool found = true;  // reads: false = the key was missing
  std::string key;
  std::string value;
};

struct CommittedTxn {
  uint64_t ts = 0;
  uint64_t logical = 0;
  std::vector<Op> ops;
};

struct ReadbackObs {
  std::string key;
  bool found = true;
  std::string value;
};

struct History {
  std::vector<std::pair<std::string, std::string>> initial;
  std::vector<CommittedTxn> committed;
  std::vector<ReadbackObs> readback;
};

struct CheckResult {
  uint64_t txns = 0;
  uint64_t reads_checked = 0;
  uint64_t read_mismatches = 0;
  uint64_t readback_checked = 0;
  uint64_t readback_mismatches = 0;
  std::vector<std::string> first_errors;  // at most a handful, for the log
  bool ok() const { return read_mismatches == 0 && readback_mismatches == 0; }
};

using KvMap = std::unordered_map<std::string, std::string>;

inline std::vector<size_t> TsOrder(const History& h) {
  std::vector<size_t> order(h.committed.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return h.committed[a].ts < h.committed[b].ts; });
  return order;
}

inline std::string Show(bool found, const std::string& v) {
  return found ? "\"" + v + "\"" : "<missing>";
}

inline CheckResult ReplayAndCheck(const History& h, KvMap* final_map = nullptr) {
  CheckResult r;
  KvMap m;
  for (const auto& [k, v] : h.initial) {
    m[k] = v;  // later duplicates win
  }
  auto note = [&](std::string msg) {
    if (r.first_errors.size() < 8) {
      r.first_errors.push_back(std::move(msg));
    }
  };
  for (size_t idx : TsOrder(h)) {
    const CommittedTxn& t = h.committed[idx];
    r.txns++;
    KvMap local;
    for (const Op& op : t.ops) {
      if (op.write) {
        local[op.key] = op.value;
        continue;
      }
      r.reads_checked++;
      bool want_found = true;
      std::string want;
      if (auto it = local.find(op.key); it != local.end()) {
        want = it->second;
      } else if (auto mit = m.find(op.key); mit != m.end()) {
        want = mit->second;
      } else {
        want_found = false;
      }
      if (op.found != want_found || (want_found && op.value != want)) {
        r.read_mismatches++;
        note("txn ts=" + std::to_string(t.ts) + " read " + op.key + " saw " +
             Show(op.found, op.value) + ", serial replay has " + Show(want_found, want));
      }
    }
    for (auto& [k, v] : local) {
      m[k] = std::move(v);
    }
  }
  for (const ReadbackObs& obs : h.readback) {
    r.readback_checked++;
    auto it = m.find(obs.key);
    bool want_found = it != m.end();
    if (obs.found != want_found || (want_found && obs.value != it->second)) {
      r.readback_mismatches++;
      note("readback " + obs.key + " saw " + Show(obs.found, obs.value) +
           ", serial replay has " + Show(want_found, want_found ? it->second : ""));
    }
  }
  if (final_map != nullptr) {
    *final_map = std::move(m);
  }
  return r;
}

// Distinct keys written by committed transactions, sorted.
inline std::vector<std::string> WrittenKeys(const History& h) {
  std::set<std::string> keys;
  for (const CommittedTxn& t : h.committed) {
    for (const Op& op : t.ops) {
      if (op.write) {
        keys.insert(op.key);
      }
    }
  }
  return {keys.begin(), keys.end()};
}

// Checker self-test support: corrupt a history the way a faulty store
// would, at a place the history can witness.
//   alter_read  – one observed read value (the first committed read of a
//                 key the transaction had not written) gains a byte;
//   drop_write  – one committed write vanishes: the last write of a
//                 read-back key that changed the key's value.
// Returns false when the history offers no such place.
inline bool Doctor(History* h, const std::string& kind, std::string* what) {
  std::vector<size_t> order = TsOrder(*h);
  if (kind == "alter_read") {
    for (size_t idx : order) {
      CommittedTxn& t = h->committed[idx];
      std::set<std::string> written;
      for (Op& op : t.ops) {
        if (op.write) {
          written.insert(op.key);
        } else if (op.found && written.count(op.key) == 0) {
          op.value += "#";
          *what = "altered read of " + op.key + " in txn ts=" + std::to_string(t.ts);
          return true;
        }
      }
    }
    return false;
  }
  if (kind == "drop_write") {
    // Replay to find, per key, the last committed txn that changed it.
    KvMap m;
    for (const auto& [k, v] : h->initial) {
      m[k] = v;
    }
    std::map<std::string, size_t> last_change;  // key -> committed index
    for (size_t idx : order) {
      KvMap local;
      for (const Op& op : h->committed[idx].ops) {
        if (op.write) {
          local[op.key] = op.value;
        }
      }
      for (auto& [k, v] : local) {
        auto it = m.find(k);
        if (it == m.end() || it->second != v) {
          last_change[k] = idx;
        } else {
          last_change.erase(k);  // rewrote the same value: dropping shows nothing
        }
        m[k] = v;
      }
    }
    for (const ReadbackObs& obs : h->readback) {
      auto it = last_change.find(obs.key);
      if (it == last_change.end()) {
        continue;
      }
      CommittedTxn& t = h->committed[it->second];
      std::erase_if(t.ops, [&](const Op& op) { return op.write && op.key == obs.key; });
      *what = "dropped write of " + obs.key + " in txn ts=" + std::to_string(t.ts);
      return true;
    }
    return false;
  }
  return false;
}

// --- on-disk form: text records, strings length-prefixed as "<len>:<bytes>".
//   E2EHIST 1
//   I <n>          then n lines "<key> <value>"
//   T <ts> <logical> <nops>   then nops lines "R|W <found> <key> <value>"
//   B <n>          then n lines "<found> <key> <value>"

inline void PutStr(std::string* out, const std::string& s) {
  *out += std::to_string(s.size());
  *out += ':';
  *out += s;
}

inline bool SaveHistory(const History& h, const std::string& path) {
  std::string out = "E2EHIST 1\nI " + std::to_string(h.initial.size()) + "\n";
  for (const auto& [k, v] : h.initial) {
    PutStr(&out, k);
    out += ' ';
    PutStr(&out, v);
    out += '\n';
  }
  for (const CommittedTxn& t : h.committed) {
    out += "T " + std::to_string(t.ts) + " " + std::to_string(t.logical) + " " +
           std::to_string(t.ops.size()) + "\n";
    for (const Op& op : t.ops) {
      out += op.write ? "W " : "R ";
      out += op.found ? "1 " : "0 ";
      PutStr(&out, op.key);
      out += ' ';
      PutStr(&out, op.value);
      out += '\n';
    }
  }
  out += "B " + std::to_string(h.readback.size()) + "\n";
  for (const ReadbackObs& obs : h.readback) {
    out += obs.found ? "1 " : "0 ";
    PutStr(&out, obs.key);
    out += ' ';
    PutStr(&out, obs.value);
    out += '\n';
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

class HistoryReader {
 public:
  explicit HistoryReader(std::string data) : d_(std::move(data)) {}

  bool Word(std::string* w) {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < d_.size() && d_[pos_] != ' ' && d_[pos_] != '\n') {
      ++pos_;
    }
    *w = d_.substr(start, pos_ - start);
    return !w->empty();
  }
  bool Num(uint64_t* n) {
    std::string w;
    if (!Word(&w) || w.find_first_not_of("0123456789") != std::string::npos || w.size() > 19) {
      return false;
    }
    *n = std::stoull(w);
    return true;
  }
  bool Str(std::string* s) {
    SkipSpace();
    size_t colon = d_.find(':', pos_);
    if (colon == std::string::npos || colon == pos_ || colon - pos_ > 19) {
      return false;
    }
    std::string len_text = d_.substr(pos_, colon - pos_);
    if (len_text.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    uint64_t len = std::stoull(len_text);
    if (len > d_.size() - colon - 1) {
      return false;
    }
    *s = d_.substr(colon + 1, len);
    pos_ = colon + 1 + len;
    return true;
  }
  bool Done() {
    SkipSpace();
    return pos_ >= d_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < d_.size() && (d_[pos_] == ' ' || d_[pos_] == '\n')) {
      ++pos_;
    }
  }
  std::string d_;
  size_t pos_ = 0;
};

inline bool LoadHistory(const std::string& path, History* h) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  std::string data;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.append(buf, n);
  }
  std::fclose(f);
  HistoryReader in(std::move(data));
  std::string tag;
  uint64_t version = 0;
  uint64_t count = 0;
  if (!in.Word(&tag) || tag != "E2EHIST" || !in.Num(&version) || version != 1) {
    return false;
  }
  if (!in.Word(&tag) || tag != "I" || !in.Num(&count)) {
    return false;
  }
  for (uint64_t i = 0; i < count; ++i) {
    std::string k, v;
    if (!in.Str(&k) || !in.Str(&v)) {
      return false;
    }
    h->initial.emplace_back(std::move(k), std::move(v));
  }
  while (in.Word(&tag)) {
    if (tag == "T") {
      CommittedTxn t;
      uint64_t nops = 0;
      if (!in.Num(&t.ts) || !in.Num(&t.logical) || !in.Num(&nops)) {
        return false;
      }
      for (uint64_t i = 0; i < nops; ++i) {
        Op op;
        std::string kind, found;
        if (!in.Word(&kind) || !in.Word(&found) || !in.Str(&op.key) || !in.Str(&op.value)) {
          return false;
        }
        op.write = kind == "W";
        op.found = found == "1";
        t.ops.push_back(std::move(op));
      }
      h->committed.push_back(std::move(t));
    } else if (tag == "B") {
      if (!in.Num(&count)) {
        return false;
      }
      for (uint64_t i = 0; i < count; ++i) {
        ReadbackObs obs;
        std::string found;
        if (!in.Word(&found) || !in.Str(&obs.key) || !in.Str(&obs.value)) {
          return false;
        }
        obs.found = found == "1";
        h->readback.push_back(std::move(obs));
      }
    } else {
      return false;
    }
  }
  return in.Done();
}

}  // namespace e2e

#endif  // E2EBENCH_SRC_HISTORY_H_
