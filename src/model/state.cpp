#include "model/state.h"

#include <sstream>

#include "common/check.h"
#include "common/serial.h"

namespace sealpk::model {

namespace {

ModelState sized_state(const ModelConfig& cfg) {
  ModelState s;
  s.keys.resize(cfg.num_pkeys);
  s.pages.resize(cfg.num_pages);
  s.cam.resize(cfg.cam_entries);
  return s;
}

}  // namespace

ModelState initial_state(const ModelConfig& cfg) {
  ModelState s = sized_state(cfg);
  s.keys[0].allocated = true;  // the default domain
  s.keys[0].pages = static_cast<u8>(cfg.num_pages);
  return s;
}

std::string encode_state(const ModelState& s) {
  ByteWriter w;
  Save ar(w);
  ar(s);
  const std::vector<u8>& buf = w.buffer();
  return std::string(reinterpret_cast<const char*>(buf.data()), buf.size());
}

ModelState parse_state(const ModelConfig& cfg, const std::string& enc) {
  ModelState s = sized_state(cfg);
  ByteReader r(reinterpret_cast<const u8*>(enc.data()), enc.size());
  Load ar(r);
  ar(s);
  SEALPK_CHECK_MSG(r.done(), "state encoding does not match configuration");
  return s;
}

std::string state_to_string(const ModelState& s) {
  std::ostringstream os;
  for (size_t k = 0; k < s.keys.size(); ++k) {
    const auto& key = s.keys[k];
    os << "key" << k << ": alloc=" << key.allocated << " dirty=" << key.dirty
       << " sd=" << key.sealed_domain << " sp=" << key.sealed_page
       << " hw_sealed=" << key.hw_sealed << " perm=" << unsigned{key.perm}
       << " range="
       << (key.range == kNoRange ? std::string("-")
                                 : std::to_string(unsigned{key.range}))
       << " pages=" << unsigned{key.pages} << "\n";
  }
  for (size_t p = 0; p < s.pages.size(); ++p) {
    os << "page" << p << ": pkey=" << unsigned{s.pages[p].pkey}
       << " prot=" << unsigned{s.pages[p].prot} << "\n";
  }
  for (size_t i = 0; i < s.cam.size(); ++i) {
    const auto& e = s.cam[i];
    os << "cam" << i << ": ";
    if (e.valid) {
      os << "pkey=" << unsigned{e.pkey} << " [0x" << std::hex << e.start
         << ", 0x" << e.end << std::dec << "]";
    } else {
      os << "invalid";
    }
    os << "\n";
  }
  os << "fifo_next=" << unsigned{s.fifo_next} << "\n";
  return os.str();
}

std::string describe_divergence(const ModelState& spec,
                                const ModelState& machine) {
  std::ostringstream os;
  for (size_t k = 0; k < spec.keys.size(); ++k) {
    const auto& a = spec.keys[k];
    const auto& b = machine.keys[k];
    if (a == b) continue;
    os << "key" << k << " differs:";
    if (a.allocated != b.allocated)
      os << " allocated spec=" << a.allocated << " machine=" << b.allocated;
    if (a.dirty != b.dirty)
      os << " dirty spec=" << a.dirty << " machine=" << b.dirty;
    if (a.sealed_domain != b.sealed_domain)
      os << " sealed_domain spec=" << a.sealed_domain
         << " machine=" << b.sealed_domain;
    if (a.sealed_page != b.sealed_page)
      os << " sealed_page spec=" << a.sealed_page
         << " machine=" << b.sealed_page;
    if (a.hw_sealed != b.hw_sealed)
      os << " hw_sealed spec=" << a.hw_sealed << " machine=" << b.hw_sealed;
    if (a.perm != b.perm)
      os << " perm spec=" << unsigned{a.perm}
         << " machine=" << unsigned{b.perm};
    if (a.range != b.range)
      os << " range spec=" << unsigned{a.range}
         << " machine=" << unsigned{b.range};
    if (a.pages != b.pages)
      os << " pages spec=" << unsigned{a.pages}
         << " machine=" << unsigned{b.pages};
    return os.str();
  }
  for (size_t p = 0; p < spec.pages.size(); ++p) {
    if (spec.pages[p] == machine.pages[p]) continue;
    os << "page" << p << " differs: spec pkey=" << unsigned{spec.pages[p].pkey}
       << " prot=" << unsigned{spec.pages[p].prot}
       << ", machine pkey=" << unsigned{machine.pages[p].pkey}
       << " prot=" << unsigned{machine.pages[p].prot};
    return os.str();
  }
  for (size_t i = 0; i < spec.cam.size(); ++i) {
    if (spec.cam[i] == machine.cam[i]) continue;
    os << "cam slot " << i << " differs";
    return os.str();
  }
  if (spec.fifo_next != machine.fifo_next) {
    os << "fifo_next spec=" << unsigned{spec.fifo_next}
       << " machine=" << unsigned{machine.fifo_next};
    return os.str();
  }
  return "";
}

}  // namespace sealpk::model
