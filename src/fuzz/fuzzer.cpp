#include "fuzz/fuzzer.h"

#include <algorithm>
#include <set>

#include "obs/metrics.h"

namespace patchecko {

namespace {

struct FuzzMetrics {
  obs::Counter& envs_generated =
      obs::Registry::global().counter("fuzz.envs_generated");
  obs::Counter& env_crashes =
      obs::Registry::global().counter("fuzz.env_crashes");
  obs::Counter& envs_selected =
      obs::Registry::global().counter("fuzz.envs_selected");

  static FuzzMetrics& get() {
    static FuzzMetrics metrics;
    return metrics;
  }
};

}  // namespace

CallEnv random_env(Rng& rng, const std::vector<ValueType>& params,
                   const FuzzConfig& config) {
  CallEnv env;
  int last_buffer = -1;
  for (std::size_t p = 0; p < params.size(); ++p) {
    switch (params[p]) {
      case ValueType::ptr: {
        const auto len = rng.uniform(config.min_buffer, config.max_buffer);
        std::vector<std::uint8_t> buffer(static_cast<std::size_t>(len));
        for (auto& byte : buffer)
          byte = static_cast<std::uint8_t>(rng.uniform(0, 255));
        // Sprinkle NULs so strlen-style scans terminate at varied offsets.
        if (rng.chance(0.7) && !buffer.empty())
          buffer[static_cast<std::size_t>(
              rng.uniform(0, len - 1))] = 0;
        env.buffers.push_back(std::move(buffer));
        last_buffer = static_cast<int>(env.buffers.size()) - 1;
        env.args.push_back(Value::from_ptr(last_buffer, 0));
        break;
      }
      case ValueType::i64: {
        // Corpus convention: an i64 right after a ptr is the buffer length.
        if (p > 0 && params[p - 1] == ValueType::ptr && last_buffer >= 0) {
          env.args.push_back(Value::from_int(static_cast<std::int64_t>(
              env.buffers[static_cast<std::size_t>(last_buffer)].size())));
        } else {
          env.args.push_back(Value::from_int(rng.uniform(-4, 255)));
        }
        break;
      }
      case ValueType::f64:
        env.args.push_back(Value::from_fp(rng.uniform_real(-4.0, 4.0)));
        break;
    }
  }
  return env;
}

std::vector<std::uint8_t> byte_dictionary(const FunctionBinary& function) {
  std::vector<std::uint8_t> dictionary;
  for (const Instruction& inst : function.code) {
    if (inst.op != Opcode::ldi) continue;
    if (inst.imm < 0 || inst.imm > 255) continue;
    const auto byte = static_cast<std::uint8_t>(inst.imm);
    if (std::find(dictionary.begin(), dictionary.end(), byte) ==
        dictionary.end())
      dictionary.push_back(byte);
  }
  return dictionary;
}

CallEnv mutate_env(Rng& rng, const CallEnv& env,
                   const std::vector<ValueType>& params,
                   const FuzzConfig& config,
                   const std::vector<std::uint8_t>& dictionary) {
  CallEnv out = env;
  // Buffer mutations.
  for (auto& buffer : out.buffers) {
    if (buffer.empty()) continue;
    const int flips = static_cast<int>(rng.uniform(1, 6));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(rng.uniform(
          0, static_cast<std::int64_t>(buffer.size()) - 1));
      buffer[pos] = static_cast<std::uint8_t>(rng.uniform(0, 255));
    }
    // Dictionary injection: plant adjacent pairs of code-derived constants
    // at several positions — the move that lets the fuzzer reach branches
    // guarded by specific byte patterns (e.g. the 0xff 0x00 pair of
    // CVE-2018-9412's unsynchronization markers).
    if (!dictionary.empty() && rng.chance(0.7)) {
      const int plants = static_cast<int>(rng.uniform(1, 4));
      for (int plant = 0; plant < plants; ++plant) {
        const std::uint8_t first = rng.pick(dictionary);
        const std::uint8_t second = rng.pick(dictionary);
        const auto pos = static_cast<std::size_t>(rng.uniform(
            0, static_cast<std::int64_t>(buffer.size()) - 1));
        buffer[pos] = first;
        if (pos + 1 < buffer.size()) buffer[pos + 1] = second;
      }
    }
    if (rng.chance(0.25)) {
      // Resize within limits (keeps any length params in sync below).
      const auto len =
          rng.uniform(config.min_buffer, config.max_buffer);
      buffer.resize(static_cast<std::size_t>(len), 0);
    }
  }
  // Scalar mutations + length resync.
  int last_buffer = -1;
  for (std::size_t p = 0; p < params.size() && p < out.args.size(); ++p) {
    switch (params[p]) {
      case ValueType::ptr:
        last_buffer = out.args[p].buffer;
        break;
      case ValueType::i64:
        if (p > 0 && params[p - 1] == ValueType::ptr && last_buffer >= 0 &&
            static_cast<std::size_t>(last_buffer) < out.buffers.size()) {
          out.args[p] = Value::from_int(static_cast<std::int64_t>(
              out.buffers[static_cast<std::size_t>(last_buffer)].size()));
        } else if (rng.chance(0.5)) {
          out.args[p] = Value::from_int(out.args[p].i +
                                        rng.uniform(-8, 8));
        }
        break;
      case ValueType::f64:
        if (rng.chance(0.5))
          out.args[p] =
              Value::from_fp(out.args[p].f + rng.uniform_real(-1.0, 1.0));
        break;
    }
  }
  return out;
}

std::vector<CallEnv> generate_environments(const LibraryBinary& library,
                                           std::size_t function_index,
                                           Rng& rng,
                                           const FuzzConfig& config) {
  const Machine machine(library, config.machine);
  const std::vector<ValueType>& params =
      library.functions.at(function_index).param_types;
  const std::vector<std::uint8_t> dictionary =
      byte_dictionary(library.functions.at(function_index));

  struct Scored {
    CallEnv env;
    std::uint64_t coverage = 0;
  };
  std::vector<Scored> pool;

  std::size_t best_index = 0;
  for (std::size_t attempt = 0; attempt < config.attempts; ++attempt) {
    // Coverage feedback: half of the mutations extend the best-covering
    // environment found so far, the rest explore.
    CallEnv candidate;
    if (!pool.empty() && rng.chance(0.6)) {
      const Scored& base =
          rng.chance(0.5) ? pool[best_index] : rng.pick(pool);
      candidate = mutate_env(rng, base.env, params, config, dictionary);
    } else {
      candidate = random_env(rng, params, config);
    }
    FuzzMetrics::get().envs_generated.add();
    const RunResult result = machine.run(function_index, candidate);
    if (result.status != ExecStatus::ok) {
      FuzzMetrics::get().env_crashes.add();
      continue;
    }
    pool.push_back({std::move(candidate),
                    result.features.unique_instructions});
    if (pool.back().coverage > pool[best_index].coverage)
      best_index = pool.size() - 1;
  }

  // Greedy pick: maximise coverage diversity (distinct unique-site counts
  // first, then highest coverage).
  std::sort(pool.begin(), pool.end(), [](const Scored& a, const Scored& b) {
    return a.coverage > b.coverage;
  });
  std::vector<CallEnv> selected;
  std::vector<bool> taken(pool.size(), false);
  std::set<std::uint64_t> seen_coverage;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (selected.size() >= config.env_count) break;
    if (seen_coverage.insert(pool[i].coverage).second) {
      selected.push_back(pool[i].env);
      taken[i] = true;
    }
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (selected.size() >= config.env_count) break;
    if (!taken[i]) selected.push_back(pool[i].env);
  }
  FuzzMetrics::get().envs_selected.add(selected.size());
  return selected;
}

}  // namespace patchecko
