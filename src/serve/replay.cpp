#include "serve/replay.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "core/damping.hpp"
#include "core/highlevel.hpp"
#include "lattice/current.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "obs/json.hpp"

namespace kpm::serve {

namespace {

using obs::JsonValue;

double number_or(const JsonValue& obj, std::string_view key, double fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  KPM_REQUIRE(v->kind == JsonValue::Kind::Number,
              "workload: field '" + std::string(key) + "' must be a number");
  return v->number;
}

std::size_t size_or(const JsonValue& obj, std::string_view key, std::size_t fallback) {
  const double v = number_or(obj, key, static_cast<double>(fallback));
  KPM_REQUIRE(v >= 0.0, "workload: field '" + std::string(key) + "' must be >= 0");
  return static_cast<std::size_t>(v);
}

std::string string_or(const JsonValue& obj, std::string_view key,
                      const std::string& fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  KPM_REQUIRE(v->kind == JsonValue::Kind::String,
              "workload: field '" + std::string(key) + "' must be a string");
  return v->string;
}

RequestBase parse_base(const JsonValue& r) {
  RequestBase b;
  b.id = static_cast<std::uint64_t>(size_or(r, "id", 0));
  b.model = string_or(r, "model", "");
  KPM_REQUIRE(!b.model.empty(), "workload: request is missing 'model'");
  b.arrival_seconds = number_or(r, "arrival", 0.0);
  KPM_REQUIRE(b.arrival_seconds >= 0.0,
              "workload: request 'arrival' must be >= 0 (the simulated clock starts at 0)");
  b.priority = static_cast<int>(number_or(r, "priority", 0.0));
  b.deadline_seconds = number_or(r, "deadline", 0.0);
  b.engine = core::engine_kind_from_string(string_or(r, "engine", "cpu-parallel"));
  b.moments.num_moments = size_or(r, "moments", b.moments.num_moments);
  b.moments.random_vectors = size_or(r, "R", b.moments.random_vectors);
  b.moments.realizations = size_or(r, "S", b.moments.realizations);
  b.moments.seed = static_cast<std::uint64_t>(
      size_or(r, "seed", static_cast<std::size_t>(b.moments.seed)));
  const std::string kernel = string_or(r, "kernel", "");
  if (!kernel.empty()) b.reconstruct.kernel = core::damping_kernel_from_string(kernel);
  b.reconstruct.points = size_or(r, "points", b.reconstruct.points);
  return b;
}

Request parse_request(const JsonValue& r) {
  const std::string kind = string_or(r, "kind", "dos");
  if (kind == "dos") {
    DosRequest req;
    static_cast<RequestBase&>(req) = parse_base(r);
    return req;
  }
  if (kind == "ldos") {
    LdosRequest req;
    static_cast<RequestBase&>(req) = parse_base(r);
    req.site = size_or(r, "site", 0);
    return req;
  }
  if (kind == "sigma") {
    SigmaRequest req;
    static_cast<RequestBase&>(req) = parse_base(r);
    req.axis = size_or(r, "axis", 0);
    req.sigma.kernel = req.reconstruct.kernel;
    req.sigma.lorentz_lambda = req.reconstruct.lorentz_lambda;
    req.sigma.points = size_or(r, "points", req.sigma.points);
    return req;
  }
  KPM_FAIL("workload: unknown request kind '" + kind + "' (dos|ldos|sigma)");
}

}  // namespace

ReplayWorkload parse_workload(const std::string& json_text) {
  const JsonValue doc = obs::parse_json(json_text);
  KPM_REQUIRE(doc.kind == JsonValue::Kind::Object, "workload: document must be an object");
  const std::string schema = string_or(doc, "schema", "");
  KPM_REQUIRE(schema == "kpm.serve.workload/1",
              "workload: expected schema kpm.serve.workload/1, got '" + schema + "'");

  ReplayWorkload w;
  w.label = string_or(doc, "label", "serve-replay");

  if (const JsonValue* config = doc.find("config")) {
    KPM_REQUIRE(config->kind == JsonValue::Kind::Object,
                "workload: 'config' must be an object");
    w.config_sets_workers = config->find("workers") != nullptr;
    w.config.workers = size_or(*config, "workers", w.config.workers);
    w.config.max_queue = size_or(*config, "max_queue", w.config.max_queue);
    w.config.max_batch = size_or(*config, "max_batch", w.config.max_batch);
    w.config.policy =
        shed_policy_from_string(string_or(*config, "policy", to_string(w.config.policy)));
    w.config.degrade_floor = size_or(*config, "degrade_floor", w.config.degrade_floor);
    w.config.cache_bytes = size_or(*config, "cache_bytes", w.config.cache_bytes);
    w.config.cache_policy = cache_policy_from_string(
        string_or(*config, "cache_policy", to_string(w.config.cache_policy)));
    w.config.pricing = batch_pricing_from_string(
        string_or(*config, "pricing", to_string(w.config.pricing)));
    w.config.validate();
  }

  const JsonValue& models = doc.at("models");
  KPM_REQUIRE(models.kind == JsonValue::Kind::Array, "workload: 'models' must be an array");
  for (const JsonValue& m : models.array) {
    KPM_REQUIRE(m.kind == JsonValue::Kind::Object, "workload: model must be an object");
    ModelSpec spec;
    spec.name = string_or(m, "name", "");
    KPM_REQUIRE(!spec.name.empty(), "workload: model is missing 'name'");
    spec.lattice = string_or(m, "lattice", spec.lattice);
    spec.edge = size_or(m, "edge", spec.edge);
    spec.disorder = number_or(m, "disorder", spec.disorder);
    spec.seed = static_cast<std::uint64_t>(
        size_or(m, "seed", static_cast<std::size_t>(spec.seed)));
    if (const JsonValue* currents = m.find("currents")) {
      KPM_REQUIRE(currents->kind == JsonValue::Kind::Array,
                  "workload: 'currents' must be an array of axes");
      for (const JsonValue& axis : currents->array)
        spec.currents.push_back(static_cast<std::size_t>(axis.number));
    }
    w.models.push_back(std::move(spec));
  }

  const JsonValue& requests = doc.at("requests");
  KPM_REQUIRE(requests.kind == JsonValue::Kind::Array,
              "workload: 'requests' must be an array");
  for (const JsonValue& r : requests.array) {
    KPM_REQUIRE(r.kind == JsonValue::Kind::Object, "workload: request must be an object");
    w.requests.push_back(parse_request(r));
  }
  return w;
}

ReplayWorkload load_workload(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  KPM_REQUIRE(in.good(), "cannot open workload file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return parse_workload(text.str());
}

namespace {

lattice::HypercubicLattice lattice_of(const ModelSpec& spec) {
  if (spec.lattice == "chain") return lattice::HypercubicLattice::chain(spec.edge);
  if (spec.lattice == "square")
    return lattice::HypercubicLattice::square(spec.edge, spec.edge);
  if (spec.lattice == "cubic")
    return lattice::HypercubicLattice::cubic(spec.edge, spec.edge, spec.edge);
  KPM_FAIL("workload: unknown lattice '" + spec.lattice + "' (chain|square|cubic)");
}

}  // namespace

linalg::CrsMatrix build_model_matrix(const ModelSpec& spec) {
  const auto onsite = spec.disorder != 0.0
                          ? lattice::anderson_disorder(spec.disorder, spec.seed)
                          : lattice::OnsiteFunction{};
  return lattice::build_tight_binding_crs(lattice_of(spec), {}, onsite);
}

linalg::CrsMatrix build_model_current(const ModelSpec& spec, std::size_t axis) {
  return lattice::build_current_operator_crs(lattice_of(spec), axis);
}

void register_models(Server& server, const ReplayWorkload& workload) {
  for (const ModelSpec& spec : workload.models) {
    server.register_model(spec.name, build_model_matrix(spec));
    for (const std::size_t axis : spec.currents)
      server.register_current(spec.name, axis, build_model_current(spec, axis));
  }
}

}  // namespace kpm::serve
