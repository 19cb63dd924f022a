#include "magus/hw/uncore_domain.hpp"

#include <cstdio>

#include "magus/common/error.hpp"
#include "magus/common/units.hpp"

namespace magus::hw {

std::string to_string(const DomainId& id) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "package_%02d_die_%02d", id.package, id.die);
  return buf;
}

MsrDomainSet::MsrDomainSet(IMsrDevice& msr, UncoreFreqLadder ladder)
    : msr_(msr), ctl_(msr, ladder) {}

void MsrDomainSet::check_domain(int domain) const {
  if (domain != 0) {
    throw common::ConfigError("MsrDomainSet: domain out of range (single-domain set)");
  }
}

DomainId MsrDomainSet::domain_id(int domain) const {
  check_domain(domain);
  return DomainId{0, 0};
}

common::Ghz MsrDomainSet::min_ghz(int domain) {
  check_domain(domain);
  return common::Ghz(ctl_.read_limit(0).min_ghz());
}

common::Ghz MsrDomainSet::max_ghz(int domain) {
  check_domain(domain);
  return common::Ghz(ctl_.read_limit(0).max_ghz());
}

common::Ghz MsrDomainSet::current_ghz(int domain) {
  check_domain(domain);
  const auto ratio = static_cast<unsigned>(msr_.read(0, msr::kUncorePerfStatus));
  return common::Ghz(common::ratio_to_ghz(ratio));
}

void MsrDomainSet::write_max_ghz(int domain, common::Ghz freq) {
  check_domain(domain);
  // The one logical domain spans the whole node, exactly like the legacy path.
  ctl_.set_max_ghz_all(freq.value());
}

void MsrDomainSet::release_max_ghz(common::Ghz freq) {
  for (int s = 0; s < msr_.socket_count(); ++s) {
    try {
      ctl_.set_max_ghz(s, freq.value());
    } catch (const common::DeviceError&) {
    }
  }
}

void MsrDomainSet::write_min_ghz(int domain, common::Ghz freq) {
  check_domain(domain);
  const unsigned target = ctl_.ladder().clamp_ratio(common::ghz_to_ratio(freq.value()));
  for (int s = 0; s < msr_.socket_count(); ++s) {
    const std::uint64_t raw = msr_.read(s, msr::kUncoreRatioLimit);
    UncoreRatioLimit limit = UncoreRatioLimit::decode(raw);
    if (limit.min_ratio == target) continue;
    limit.min_ratio = target;
    msr_.write(s, msr::kUncoreRatioLimit, limit.encode(raw));
    ++min_writes_;
  }
}

DomainBinding::DomainBinding(IMsrDevice& msr, const UncoreFreqLadder& ladder,
                             IMemThroughputCounter* mem, IUncoreDomainSet* domains)
    : node_(msr, ladder),
      mem_(mem),
      set_(domains != nullptr && domains->domain_count() > 1 ? domains : &node_),
      count_(set_->domain_count()) {}

void DomainBinding::release_all() {
  if (set_ == &node_) {
    node_.release_max_ghz(common::Ghz(ladder().max_ghz()));
    return;
  }
  for (int d = 0; d < count_; ++d) {
    try {
      set_->write_max_ghz(d, common::Ghz(ladder().max_ghz()));
    } catch (const common::DeviceError&) {
    }
  }
}

}  // namespace magus::hw
