#include "features/static_features.h"

#include <algorithm>
#include <bitset>
#include <cmath>

#include "util/stats.h"

namespace patchecko {

std::string_view static_feature_name(std::size_t index) {
  static constexpr std::array<std::string_view, static_feature_count> names{
      "num_constant",        "num_string",          "num_inst",
      "size_local",          "fun_flag",            "num_import",
      "num_ox",              "num_cx",              "size_fun",
      "min_i_b",             "max_i_b",             "avg_i_b",
      "std_i_b",             "min_s_b",             "max_s_b",
      "avg_s_b",             "std_s_b",             "num_bb",
      "num_edge",            "cyclomatic",          "fcb_normal",
      "fcb_indjump",         "fcb_ret",             "fcb_cndret",
      "fcb_noret",           "fcb_enoret",          "fcb_extern",
      "fcb_error",           "min_call_b",          "max_call_b",
      "avg_call_b",          "std_call_b",          "sum_call_b",
      "min_arith_b",         "max_arith_b",         "avg_arith_b",
      "std_arith_b",         "sum_arith_b",         "min_arith_fp_b",
      "max_arith_fp_b",      "avg_arith_fp_b",      "std_arith_fp_b",
      "sum_arith_fp_b",      "min_betweeness_cent", "max_betweeness_cent",
      "avg_betweeness_cent", "std_betweeness_cent", "betweeness_cent_zero"};
  return index < names.size() ? names[index] : "unknown";
}

namespace {

// Per-thread working storage of the extractor. Every container keeps its
// capacity from call to call, so a thread that has extracted a function
// extracts it again, or any function that fits, without heap allocation.
struct ExtractScratch {
  Cfg cfg;
  std::vector<std::int32_t> code_refs;
  std::vector<double> insts_per_block, bytes_per_block, calls_per_block,
      arith_per_block, fp_per_block;
  BrandesScratch brandes;
};

ExtractScratch& thread_scratch() {
  thread_local ExtractScratch scratch;
  return scratch;
}

StaticFeatureVector extract(const FunctionBinary& function, const Cfg& cfg,
                            ExtractScratch& scratch) {
  StaticFeatureVector f{};
  const auto& code = function.code;

  // --- one pass over the code, block by block -------------------------------
  // The blocks partition the code, so this visits every instruction once,
  // in order, classifying it for both the whole-function counters and its
  // block's samples.
  const std::size_t block_count = cfg.block_count();
  scratch.code_refs.clear();
  scratch.insts_per_block.resize(block_count);
  scratch.bytes_per_block.resize(block_count);
  scratch.calls_per_block.resize(block_count);
  scratch.arith_per_block.resize(block_count);
  scratch.fp_per_block.resize(block_count);
  std::int64_t num_constant = 0, num_string = 0, num_cx = 0, size_fun = 0;
  // One bit per LibFn byte value: static_cast<LibFn> truncates imm to it.
  std::bitset<256> imports;
  bool has_fp = false;
  std::array<double, 8> kind_counts{};
  for (std::size_t b = 0; b < block_count; ++b) {
    const BasicBlock& block = cfg.blocks[b];
    std::int64_t calls = 0, arith = 0, fp = 0, bytes = 0;
    for (std::size_t i = block.first; i <= block.last; ++i) {
      const Instruction& inst = code[i];
      switch (inst.op) {
        case Opcode::ldi: ++num_constant; break;
        case Opcode::ldstr: ++num_string; break;
        case Opcode::call:
        case Opcode::callr:
          ++num_cx;
          ++calls;
          break;
        case Opcode::libcall:
          imports.set(static_cast<std::uint8_t>(static_cast<LibFn>(inst.imm)));
          ++calls;
          break;
        case Opcode::syscall: ++calls; break;
        case Opcode::jmpi: {
          const auto table_id = static_cast<std::size_t>(inst.imm);
          if (table_id < function.jump_tables.size())
            for (std::int32_t entry : function.jump_tables[table_id])
              scratch.code_refs.push_back(entry);
          break;
        }
        default:
          if (is_int_arith(inst.op)) {
            ++arith;
          } else if (is_fp_arith(inst.op)) {
            ++fp;
            has_fp = true;
          }
          break;
      }
      if (inst.target >= 0) scratch.code_refs.push_back(inst.target);
      bytes += encoded_size(inst, function.arch);
    }
    size_fun += bytes;
    scratch.insts_per_block[b] = static_cast<double>(block.instruction_count());
    scratch.bytes_per_block[b] = static_cast<double>(bytes);
    scratch.calls_per_block[b] = static_cast<double>(calls);
    scratch.arith_per_block[b] = static_cast<double>(arith);
    scratch.fp_per_block[b] = static_cast<double>(fp);
    kind_counts[static_cast<std::size_t>(block.kind)] += 1.0;
  }
  std::sort(scratch.code_refs.begin(), scratch.code_refs.end());
  const auto distinct_refs =
      std::unique(scratch.code_refs.begin(), scratch.code_refs.end()) -
      scratch.code_refs.begin();

  // fun_flag: a small bitmask of structural properties (the paper's IDA
  // FUNC_* flags analog).
  double fun_flag = 0.0;
  if (!function.jump_tables.empty()) fun_flag += 1.0;
  if (num_cx == 0) fun_flag += 2.0;  // leaf function
  if (has_fp) fun_flag += 4.0;
  if (function.frame_size > 0) fun_flag += 8.0;

  f[0] = static_cast<double>(num_constant);
  f[1] = static_cast<double>(num_string);
  f[2] = static_cast<double>(code.size());
  f[3] = static_cast<double>(function.frame_size);
  f[4] = fun_flag;
  f[5] = static_cast<double>(imports.count());
  f[6] = static_cast<double>(distinct_refs);
  f[7] = static_cast<double>(num_cx);
  f[8] = static_cast<double>(size_fun);

  // --- per-basic-block statistics ---------------------------------------------
  const Summary inst_summary = summarize(scratch.insts_per_block);
  const Summary byte_summary = summarize(scratch.bytes_per_block);
  f[9] = inst_summary.min;
  f[10] = inst_summary.max;
  f[11] = inst_summary.mean;
  f[12] = inst_summary.stddev;
  f[13] = byte_summary.min;
  f[14] = byte_summary.max;
  f[15] = byte_summary.mean;
  f[16] = byte_summary.stddev;
  f[17] = static_cast<double>(block_count);
  f[18] = static_cast<double>(cfg.graph.edge_count());
  f[19] = static_cast<double>(cfg.graph.cyclomatic_complexity());
  for (std::size_t k = 0; k < kind_counts.size(); ++k)
    f[20 + k] = kind_counts[k];

  const Summary call_summary = summarize(scratch.calls_per_block);
  f[28] = call_summary.min;
  f[29] = call_summary.max;
  f[30] = call_summary.mean;
  f[31] = call_summary.stddev;
  f[32] = call_summary.sum;

  const Summary arith_summary = summarize(scratch.arith_per_block);
  f[33] = arith_summary.min;
  f[34] = arith_summary.max;
  f[35] = arith_summary.mean;
  f[36] = arith_summary.stddev;
  f[37] = arith_summary.sum;

  const Summary fp_summary = summarize(scratch.fp_per_block);
  f[38] = fp_summary.min;
  f[39] = fp_summary.max;
  f[40] = fp_summary.mean;
  f[41] = fp_summary.stddev;
  f[42] = fp_summary.sum;

  // --- betweenness centrality over the CFG --------------------------------------
  const std::span<const double> centrality =
      betweenness_centrality(cfg.graph, scratch.brandes);
  const Summary cent_summary = summarize(centrality);
  double zero_centrality = 0;
  for (double c : centrality)
    if (c == 0.0) ++zero_centrality;
  f[43] = cent_summary.min;
  f[44] = cent_summary.max;
  f[45] = cent_summary.mean;
  f[46] = cent_summary.stddev;
  f[47] = zero_centrality;

  return f;
}

}  // namespace

StaticFeatureVector extract_static_features(const FunctionBinary& function) {
  ExtractScratch& scratch = thread_scratch();
  build_cfg(function, scratch.cfg);
  return extract(function, scratch.cfg, scratch);
}

StaticFeatureVector extract_static_features(const FunctionBinary& function,
                                            const Cfg& cfg) {
  return extract(function, cfg, thread_scratch());
}

void FeatureNormalizer::fit(const std::vector<StaticFeatureVector>& corpus) {
  mean_.fill(0.0);
  std_.fill(1.0);
  if (corpus.empty()) {
    fitted_ = true;
    return;
  }
  const double n = static_cast<double>(corpus.size());
  for (const auto& raw : corpus)
    for (std::size_t i = 0; i < static_feature_count; ++i)
      mean_[i] += signed_log1p(raw[i]);
  for (double& m : mean_) m /= n;
  StaticFeatureVector var{};
  for (const auto& raw : corpus)
    for (std::size_t i = 0; i < static_feature_count; ++i) {
      const double d = signed_log1p(raw[i]) - mean_[i];
      var[i] += d * d;
    }
  for (std::size_t i = 0; i < static_feature_count; ++i)
    std_[i] = var[i] > 0.0 ? std::sqrt(var[i] / n) : 1.0;
  fitted_ = true;
}

StaticFeatureVector FeatureNormalizer::transform(
    const StaticFeatureVector& raw) const {
  StaticFeatureVector out{};
  for (std::size_t i = 0; i < static_feature_count; ++i)
    out[i] = (signed_log1p(raw[i]) - mean_[i]) / std_[i];
  return out;
}

void FeatureNormalizer::set_parameters(const StaticFeatureVector& mean,
                                       const StaticFeatureVector& stddev) {
  mean_ = mean;
  std_ = stddev;
  fitted_ = true;
}

}  // namespace patchecko
