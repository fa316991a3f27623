// CORBA servant wrappers for the Naming and Trading services.
//
// Inside a cluster the GRM reaches its Trader in-process, but the paper's
// architecture exports both services as CORBA objects ("InteGrade services
// are exported as CORBA IDL interfaces", §1) so that tools and remote
// clusters can resolve names and browse offers over the wire. These
// skeletons provide that surface on top of the library classes.
//
// Operations (all payloads CDR-encoded):
//   Naming : bind(NameBinding) -> BoolReply      rebind(NameBinding) -> Empty
//            resolve(NameRequest) -> ResolveReply unbind(NameRequest) -> BoolReply
//   Trader : export_offer(OfferExport) -> OfferIdReply
//            withdraw(OfferIdReply) -> BoolReply
//            modify(OfferExport w/ id) -> BoolReply
//            query(OfferQuery) -> OfferQueryReply
//
// Each wire struct lists its fields once in `fields()`; the generic
// cdr::Codec (cdr/cdr.hpp) derives encode and decode from that list.
#pragma once

#include <memory>
#include <tuple>

#include "orb/orb.hpp"
#include "services/naming.hpp"
#include "services/trader.hpp"
#include "sim/engine.hpp"

namespace integrade::services {

// ---- wire structs ----

struct NameBinding {
  std::string path;
  orb::ObjectRef ref;
  template <class S>
  static auto fields(S& s) {
    return std::tie(s.path, s.ref);
  }
  bool operator==(const NameBinding&) const = default;
};

struct NameRequest {
  std::string path;
  template <class S>
  static auto fields(S& s) {
    return std::tie(s.path);
  }
  bool operator==(const NameRequest&) const = default;
};

struct ResolveReply {
  bool found = false;
  orb::ObjectRef ref;
  template <class S>
  static auto fields(S& s) {
    return std::tie(s.found, s.ref);
  }
  bool operator==(const ResolveReply&) const = default;
};

struct BoolReply {
  bool ok = false;
  std::string detail;
  template <class S>
  static auto fields(S& s) {
    return std::tie(s.ok, s.detail);
  }
  bool operator==(const BoolReply&) const = default;
};

struct OfferExport {
  OfferId id;  // invalid for export, set for modify
  std::string service_type;
  orb::ObjectRef provider;
  PropertySet properties;
  template <class S>
  static auto fields(S& s) {
    return std::tie(s.id, s.service_type, s.provider, s.properties);
  }
  bool operator==(const OfferExport&) const = default;
};

struct OfferIdReply {
  OfferId id;
  template <class S>
  static auto fields(S& s) {
    return std::tie(s.id);
  }
  bool operator==(const OfferIdReply&) const = default;
};

struct OfferQuery {
  std::string service_type;
  std::string constraint;
  std::string preference;
  std::int32_t max_matches = 0;
  template <class S>
  static auto fields(S& s) {
    return std::tie(s.service_type, s.constraint, s.preference, s.max_matches);
  }
  bool operator==(const OfferQuery&) const = default;
};

struct OfferDescription {
  OfferId id;
  orb::ObjectRef provider;
  PropertySet properties;
  template <class S>
  static auto fields(S& s) {
    return std::tie(s.id, s.provider, s.properties);
  }
  bool operator==(const OfferDescription&) const = default;
};

struct OfferQueryReply {
  bool ok = false;
  std::string error;
  std::vector<OfferDescription> offers;
  template <class S>
  static auto fields(S& s) {
    return std::tie(s.ok, s.error, s.offers);
  }
  bool operator==(const OfferQueryReply&) const = default;
};

// ---- servants ----

class NamingServant final : public orb::SkeletonBase {
 public:
  explicit NamingServant(NamingService& naming);
  [[nodiscard]] const char* type_id() const override {
    return "IDL:integrade/CosNaming:1.0";
  }
};

class TraderServant final : public orb::SkeletonBase {
 public:
  /// `clock` supplies offer timestamps (may be null: timestamps stay 0).
  TraderServant(Trader& trader, sim::Engine* clock, Rng rng);
  [[nodiscard]] const char* type_id() const override {
    return "IDL:integrade/CosTrading:1.0";
  }

 private:
  Rng rng_;
};

}  // namespace integrade::services
