// The wire codec between control-plane JSON and the workload types.
//
// Both config directions walk the field table (workload/config_fields.h):
// every entry marked `http` is one JSON member, nested objects come from
// the path prefixes, and enum values travel as the names in the table kept
// beside each enum.  A new config field needs no edit here.
//
// Decoding is strict: unknown keys, wrong types and values outside the
// field's type (an int that does not fit, an integer beyond 2^53) all
// throw std::invalid_argument whose message LEADS WITH THE FIELD PATH
// ("manager must be one of standalone|custody|offer|pool ..."), which the
// router surfaces as the structured "field" member of its 400 response.
// Value rules are not the decoder's: ValidateConfig applies them, with the
// same convention, to HTTP and in-process configs alike.
//
// Encoding round-trips exactly: doubles are printed with %.17g and
// integers in full, so for every config ValidateConfig accepts,
// ConfigFromJson(Parse(ConfigToJson(c))) == c field-for-field and an
// HTTP-submitted config runs bit-identically to the in-process one (the
// svc determinism contract, pinned in svc_test.cpp and
// config_fields_test.cpp).
#pragma once

#include <string>

#include "common/json.h"
#include "workload/experiment.h"

namespace custody::svc {

/// A double as a JSON number that parses back to the identical bits
/// (%.17g; rejects non-finite values, which JSON cannot carry).
[[nodiscard]] std::string JsonNumber(double value);

/// Strict decode of an experiment config document (must be an object).
/// Unknown keys and the `checkpoint` block (server-side file I/O is not a
/// remote-configurable knob) are rejected.  Does NOT run ValidateConfig —
/// the services do, so the decode/validate split stays testable.
[[nodiscard]] workload::ExperimentConfig ConfigFromJson(
    const JsonValue& document);
/// Convenience: parse + decode.
[[nodiscard]] workload::ExperimentConfig ConfigFromJsonText(
    const std::string& text);

/// Every HTTP-settable knob, exactly (defaults included).  Throws on a
/// non-finite double, which ValidateConfig rejects.
[[nodiscard]] std::string ConfigToJson(
    const workload::ExperimentConfig& config);

[[nodiscard]] std::string SummaryToJson(const Summary& summary);

/// Every deterministic ExperimentResult field (the trace buffer is served
/// by its own endpoint, not inlined here).
[[nodiscard]] std::string ResultToJson(
    const workload::ExperimentResult& result);

}  // namespace custody::svc
