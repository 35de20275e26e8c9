// Seeded inputs, reference answers and answer checks of the benchmark.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/transform.hpp"
#include "ftwc/ctmc_variant.hpp"
#include "ftwc/direct.hpp"
#include "io/tra.hpp"

namespace perfbench {

using unicon::server::ModelKind;

const char* objective_name(Objective objective) {
  return objective == Objective::Maximize ? "max" : "min";
}

std::string value_key(const std::string& model, double t, Objective objective) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, " %.10g ", t);
  return model + buffer + objective_name(objective);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

References References::load(const std::string& path) {
  References refs;
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string kind;
    if (!(fields >> kind) || kind[0] == '#') continue;
    if (kind == "value") {
      std::string model, objective;
      double t = 0.0, value = 0.0;
      if (!(fields >> model >> t >> objective >> value) ||
          (objective != "max" && objective != "min")) {
        throw std::runtime_error("malformed reference line: " + line);
      }
      refs.values[value_key(model, t, objective == "max" ? Objective::Maximize
                                                         : Objective::Minimize)] = value;
    } else if (kind == "count") {
      std::string name;
      std::uint64_t value = 0;
      if (!(fields >> name >> value)) throw std::runtime_error("malformed reference line: " + line);
      refs.counts[name] = value;
    } else {
      throw std::runtime_error("malformed reference line: " + line);
    }
  }
  return refs;
}

double References::value(const std::string& model, double t, Objective objective) const {
  const auto it = values.find(value_key(model, t, objective));
  if (it == values.end()) {
    throw std::runtime_error("no reference answer for " + value_key(model, t, objective));
  }
  return it->second;
}

std::uint64_t References::count(const std::string& name) const {
  const auto it = counts.find(name);
  if (it == counts.end()) throw std::runtime_error("no reference count " + name);
  return it->second;
}

void References::write(const std::string& path) const {
  std::ofstream out(path);
  out << "# Reference answers of perfbench: epsilon 1e-10, serial backend, one thread.\n"
         "# Regenerate with unicon_perfbench --make-reference (perfbench/README.md).\n";
  for (const auto& [key, value] : values) {
    char buffer[48];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    out << "value " << key << ' ' << buffer << '\n';
  }
  for (const auto& [name, value] : counts) out << "count " << name << ' ' << value << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

void print_inputs(const RunConfig& config, const std::string& bytes, const std::string& counts) {
  if (config.dump_inputs) std::fwrite(bytes.data(), 1, bytes.size(), stdout);
  std::printf("{\"inputs\": {\"workload\": \"%s\", \"seed\": %llu, \"bytes\": %zu, "
              "\"content_hash\": \"%s\", \"counts\": {%s}}}\n",
              config.workload.c_str(), static_cast<unsigned long long>(config.seed),
              bytes.size(), unicon::server::content_hash(bytes).c_str(), counts.c_str());
  std::fflush(stdout);
}

void Outcome::fail(const std::string& what) {
  ++failed;
  std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

bool Outcome::check(const std::string& what, double value, double expected) {
  if (std::isfinite(value) && std::abs(value - expected) <= kTolerance) return true;
  char buffer[128];
  std::snprintf(buffer, sizeof buffer, ": %.12f, expected %.12f", value, expected);
  fail(what + buffer);
  return false;
}

bool Outcome::check_status(const std::string& what, unicon::RunStatus status) {
  if (status == unicon::RunStatus::Converged) return true;
  fail(what + ": status " + unicon::run_status_name(status));
  return false;
}

bool Outcome::check_count(const References& refs, const std::string& name, std::size_t value) {
  if (value == refs.count(name)) return true;
  fail(name + " = " + std::to_string(value) + ", expected " + std::to_string(refs.count(name)));
  return false;
}

// --- generated models ----------------------------------------------------------

namespace {

void append_unit(std::string& out, const std::string& name, const std::string& cls) {
  out += "component " + name + " {\n";
  out += "  states o, d, ir, rp;\n  initial o;\n";
  out += "  label " + name + "_up: o, rp;\n";
  out += "  fail: o -> d;\n";
  out += "  g_" + cls + ": d -> ir;\n";
  out += "  repair: ir -> rp;\n";
  out += "  r_" + cls + ": rp -> o;\n";
  out += "}\n";
}

void append_timed_let(std::string& out, const std::string& name, const std::string& cls,
                      const std::string& fail_timing, const std::string& repair_timing) {
  out += "let " + name + "_t = hide {fail, repair} in\n";
  out += "  (" + name + " |[fail, g_" + cls + ", repair, r_" + cls + "]|\n";
  out += "   (elapse(fail, r_" + cls + ", " + fail_timing + ", running) ||| elapse(repair, g_" +
         cls + ", " + repair_timing + ")));\n";
}

}  // namespace

std::string generated_ftwc_uni(unsigned workstations) {
  std::string out = "model ftwc_generated;\n";
  std::vector<std::string> units, classes;
  for (unsigned i = 0; i < workstations; ++i) {
    units.push_back("ws" + std::to_string(i + 1));
    classes.push_back(i % 2 == 0 ? "wsL" : "wsR");
    append_unit(out, units.back(), classes.back());
  }
  append_unit(out, "swL", "swL");
  append_unit(out, "swR", "swR");
  append_unit(out, "bb", "bb");

  out += "component repair_unit {\n  states idle, b_wsL, b_wsR, b_swL, b_swR, b_bb;\n"
         "  initial idle;\n";
  for (const char* cls : {"wsL", "wsR", "swL", "swR", "bb"}) {
    out += std::string("  g_") + cls + ": idle -> b_" + cls + ";\n";
    out += std::string("  r_") + cls + ": b_" + cls + " -> idle;\n";
  }
  out += "}\n";

  out += "timing ws_fail = exponential(0.002);\ntiming ws_repair = exponential(2);\n"
         "timing sw_fail = exponential(0.00025);\ntiming sw_repair = exponential(0.25);\n"
         "timing bb_fail = exponential(0.0002);\ntiming bb_repair = exponential(0.125);\n";

  for (unsigned i = 0; i < workstations; ++i) {
    append_timed_let(out, units[i], classes[i], "ws_fail", "ws_repair");
  }
  append_timed_let(out, "swL", "swL", "sw_fail", "sw_repair");
  append_timed_let(out, "swR", "swR", "sw_fail", "sw_repair");
  append_timed_let(out, "bb", "bb", "bb_fail", "bb_repair");

  out += "system = (";
  for (const std::string& u : units) out += u + "_t ||| ";
  out += "swL_t ||| swR_t ||| bb_t)\n"
         "  |[g_wsL, r_wsL, g_wsR, r_wsR, g_swL, r_swL, g_swR, r_swR, g_bb, r_bb]|\n"
         "  repair_unit;\n";

  out += "prop all_up =";
  for (std::size_t i = 0; i < units.size(); ++i) {
    out += (i == 0 ? " " : " & ") + units[i] + "_up";
  }
  out += ";\nprop goal = !all_up;\n";
  return out;
}

std::string generated_dft() {
  // cas.dft with a third, cold spare on the electrical gate.
  return "toplevel \"sys\";\n"
         "\"sys\" or \"mech\" \"elec\" \"ctrl\";\n"
         "\"mech\" pand \"m1\" \"m2\";\n"
         "\"elec\" wsp \"ep\" \"es1\" \"es2\" \"es3\";\n"
         "\"ctrl\" 2of3 \"c1\" \"c2\" \"c3\";\n"
         "\"pf\" fdep \"pwr\" \"c1\" \"c2\";\n"
         "\"m1\" lambda=0.2;\n"
         "\"m2\" lambda=0.3;\n"
         "\"ep\" lambda=0.5;\n"
         "\"es1\" lambda=0.5 dorm=0.2;\n"
         "\"es2\" lambda=0.5 dorm=0.2;\n"
         "\"es3\" lambda=0.5 dorm=0;\n"
         "\"c1\" lambda=0.4;\n"
         "\"c2\" lambda=0.4;\n"
         "\"c3\" lambda=0.4;\n"
         "\"pwr\" lambda=0.1;\n";
}

// --- model_text --------------------------------------------------------------------

TextInputs make_text_inputs(const std::string& root, const References& refs, Rng& rng,
                            std::size_t passes) {
  TextInputs in;
  in.sources[kGeneratedUni] = generated_ftwc_uni(kGeneratedWorkstations);
  in.sources[kGeneratedDft] = generated_dft();
  in.uni_grid = {2.0, 3.0, 4.0, 5.0};
  in.dft_grid = {0.5, 1.0, 1.5, 2.0};

  for (const bool dft : {false, true}) {
    const std::string dir = root + (dft ? "/examples/dft/" : "/examples/models/");
    std::istringstream smoke(read_file(dir + "SMOKE"));
    std::string line;
    while (std::getline(smoke, line)) {
      std::istringstream fields(line);
      std::string file;
      if (!(fields >> file) || file[0] == '#') continue;
      TextQuery q;
      q.name = file;
      q.dft = dft;
      std::string third, flag;
      if (!(fields >> q.t >> third >> q.expected)) {
        throw std::runtime_error("malformed SMOKE line: " + line);
      }
      if (dft) {
        q.goal = "failed";
        q.objective = third == "min" ? Objective::Minimize : Objective::Maximize;
      } else {
        q.goal = third;
        while (fields >> flag) {
          if (flag == "--min") q.objective = Objective::Minimize;
        }
      }
      if (!in.sources.count(file)) in.sources[file] = read_file(dir + file);
      in.smoke.push_back(q);
    }
  }
  for (TextQuery& q : in.smoke) q.source = &in.sources.at(q.name);

  in.passes.resize(passes);
  for (std::vector<TextQuery>& pass : in.passes) {
    pass = in.smoke;
    for (const bool dft : {false, true}) {
      TextQuery q;
      q.name = dft ? kGeneratedDft : kGeneratedUni;
      q.dft = dft;
      q.source = &in.sources.at(q.name);
      q.goal = dft ? "failed" : "goal";
      const std::vector<double>& grid = dft ? in.dft_grid : in.uni_grid;
      q.t = grid[rng.below(grid.size())];
      q.objective = rng.below(2) == 0 ? Objective::Maximize : Objective::Minimize;
      q.expected = refs.values.empty() ? 0.0 : refs.value(q.name, q.t, q.objective);
      pass.push_back(q);
    }
    rng.shuffle(pass);
  }
  return in;
}

std::string serialize(const TextInputs& inputs) {
  std::string out;
  for (const auto& [name, source] : inputs.sources) {
    out += "source " + name + " " + std::to_string(source.size()) + "\n" + source + "\n";
  }
  for (std::size_t p = 0; p < inputs.passes.size(); ++p) {
    out += "pass " + std::to_string(p) + "\n";
    for (const TextQuery& q : inputs.passes[p]) {
      out += value_key(q.name, q.t, q.objective) + " " + q.goal + "\n";
    }
  }
  return out;
}

// --- server_mix --------------------------------------------------------------------

ServerInputs make_server_inputs(const std::string& root, Rng& rng, std::size_t blocks) {
  ServerInputs in;
  const std::vector<double> grid = {0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0};
  // The CTMC variant's decision races (rate 200) make its uniformization
  // rate ~100x the CTMDPs'; a grid capped at 5 h keeps its sweeps from
  // drowning the CTMDP batch solves in the mix.
  const std::vector<double> ctmc_grid = {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0};
  for (const char* file : {"quickstart.uni", "erlang_job_shop.uni", "ftwc.uni"}) {
    in.models.push_back(
        {file, ModelKind::Uni, read_file(root + "/examples/models/" + file), "", "goal", grid});
  }
  for (const char* file : {"cas.dft", "fdep_pand.dft", "spare_warm.dft"}) {
    in.models.push_back(
        {file, ModelKind::Dft, read_file(root + "/examples/dft/" + file), "", "goal", grid});
  }
  {
    unicon::ftwc::Parameters params;
    params.n = 8;
    const unicon::ftwc::DirectResult direct = unicon::ftwc::build_direct(params);
    const unicon::TransformResult transformed =
        unicon::transform_to_ctmdp(direct.uimc, &direct.goal);
    std::ostringstream model, labels;
    unicon::io::write_ctmdp(model, transformed.ctmdp);
    unicon::io::write_goal(labels, transformed.goal);
    in.models.push_back({"ftwc8.ctmdp", ModelKind::CtmdpFile, model.str(), labels.str(), "goal",
                         grid});
  }
  {
    unicon::ftwc::Parameters params;
    params.n = 4;
    const unicon::ftwc::CtmcResult chain = unicon::ftwc::build_ctmc_variant(params);
    std::ostringstream model, labels;
    unicon::io::write_ctmc(model, chain.ctmc);
    unicon::io::write_goal(labels, chain.goal);
    in.models.push_back({"ftwc_ctmc4.tra", ModelKind::CtmcFile, model.str(), labels.str(),
                         "goal", ctmc_grid});
  }

  // Four query shapes per model (1 to 4 bounds, as indices into the
  // model's grid); every block holds each shape once, so every block
  // carries the same solve work and the seed only decides order and
  // objectives.
  const std::vector<std::vector<std::size_t>> shapes = {{4}, {1, 5}, {0, 3, 6}, {2, 3, 4, 5}};
  std::vector<ServerQuery> block;
  for (std::size_t m = 0; m < in.models.size(); ++m) {
    for (const std::vector<std::size_t>& shape : shapes) {
      ServerQuery q{m, {}, Objective::Maximize};
      for (const std::size_t g : shape) q.times.push_back(in.models[m].grid[g]);
      block.push_back(q);
    }
  }
  in.block_size = block.size();
  // Each shape runs max in one block and min in the next, starting from a
  // seeded side, so two consecutive blocks carry identical work.
  std::vector<std::size_t> side(block.size());
  for (std::size_t& s : side) s = rng.below(2);
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<ServerQuery> shuffled;
    for (std::size_t i = 0; i < block.size(); ++i) {
      ServerQuery q = block[i];
      q.objective = (b + side[i]) % 2 == 0 ? Objective::Maximize : Objective::Minimize;
      shuffled.push_back(q);
    }
    rng.shuffle(shuffled);
    in.queries.insert(in.queries.end(), shuffled.begin(), shuffled.end());
  }
  return in;
}

std::string serialize(const ServerInputs& inputs) {
  std::string out;
  for (const HotModel& m : inputs.models) {
    out += "model " + m.name + " " + unicon::server::model_kind_name(m.kind) + " " +
           std::to_string(m.source.size()) + " " + std::to_string(m.labels.size()) + "\n" +
           m.source + "\n" + m.labels + "\n";
  }
  for (const ServerQuery& q : inputs.queries) {
    out += inputs.models[q.model].name + " " + objective_name(q.objective);
    for (const double t : q.times) {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, " %.10g", t);
      out += buffer;
    }
    out += "\n";
  }
  return out;
}

}  // namespace perfbench
