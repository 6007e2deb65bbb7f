#include "fault/checkpoint.hpp"

#include <cstdio>
#include <filesystem>
#include <string_view>

#include "support/json.hpp"

namespace rts::fault {

namespace {

constexpr char kMagic[4] = {'R', 'T', 'S', 'C'};
constexpr std::uint32_t kVersion = 1;

void append_u32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void append_u64(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

bool read_u32(const unsigned char** cursor, const unsigned char* end,
              std::uint32_t* out) {
  if (end - *cursor < 4) return false;
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>((*cursor)[i]) << (8 * i);
  }
  *cursor += 4;
  *out = value;
  return true;
}

bool read_u64(const unsigned char** cursor, const unsigned char* end,
              std::uint64_t* out) {
  if (end - *cursor < 8) return false;
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>((*cursor)[i]) << (8 * i);
  }
  *cursor += 8;
  *out = value;
  return true;
}

// FNV-1a over the serialized payload; the same stable-everywhere hash
// campaign::spec_hash uses, so torn writes are detected without trusting
// file sizes.
std::uint64_t fnv1a(const unsigned char* data, std::size_t size) {
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

bool read_file(const std::string& path, std::string* out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  out->clear();
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    out->append(buffer, got);
  }
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  return ok;
}

bool write_file_atomic(const std::string& path, const std::string& bytes,
                       std::string* error) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return fail(error, "cannot write '" + tmp + "'");
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  const bool flushed = std::fflush(file) == 0;
  std::fclose(file);
  if (!wrote || !flushed) {
    std::remove(tmp.c_str());
    return fail(error, "short write to '" + tmp + "'");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return fail(error,
                "cannot rename '" + tmp + "' into place: " + ec.message());
  }
  return true;
}

}  // namespace

std::string cell_checkpoint_filename(int cell_index) {
  char name[32];
  std::snprintf(name, sizeof name, "cell-%04d.ckpt", cell_index);
  return name;
}

bool write_cell_checkpoint(const std::string& dir, std::uint64_t spec_hash,
                           const CellCheckpoint& cell, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return fail(error, "cannot create checkpoint directory '" + dir +
                           "': " + ec.message());
  }
  std::string bytes;
  bytes.append(kMagic, sizeof kMagic);
  append_u32(bytes, kVersion);
  append_u64(bytes, spec_hash);
  append_u32(bytes, static_cast<std::uint32_t>(cell.cell_index));
  append_u32(bytes, static_cast<std::uint32_t>(cell.summaries.size()));
  for (std::size_t t = 0; t < cell.summaries.size(); ++t) {
    bytes.push_back(cell.errored[t] ? 2 : 1);
    exec::append_trial_summary(bytes, cell.summaries[t]);
  }
  append_u64(bytes,
             fnv1a(reinterpret_cast<const unsigned char*>(bytes.data()),
                   bytes.size()));
  return write_file_atomic(dir + "/" + cell_checkpoint_filename(cell.cell_index),
                           bytes, error);
}

bool write_checkpoint_manifest(const std::string& dir,
                               const std::string& campaign,
                               std::uint64_t spec_hash, int trials, int cells,
                               std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return fail(error, "cannot create checkpoint directory '" + dir +
                           "': " + ec.message());
  }
  support::JsonWriter json;
  json.begin_object().field("schema", "rts-checkpoint-1", "campaign", campaign,
                            "spec_hash", support::hex64(spec_hash),
                            "trials", trials, "cells", cells);
  json.end_object().raw("\n");
  return write_file_atomic(dir + "/CHECKPOINT.json", json.str(), error);
}

std::vector<CellCheckpoint> load_checkpoints(const std::string& dir,
                                             std::uint64_t spec_hash,
                                             int trials, int cells) {
  std::vector<CellCheckpoint> loaded;
  for (int c = 0; c < cells; ++c) {
    std::string bytes;
    if (!read_file(dir + "/" + cell_checkpoint_filename(c), &bytes)) continue;
    if (bytes.size() < sizeof kMagic + 4 + 8 + 4 + 4 + 8) continue;
    const auto* begin = reinterpret_cast<const unsigned char*>(bytes.data());
    const unsigned char* payload_end = begin + bytes.size() - 8;
    const unsigned char* cursor = begin;
    std::uint64_t stored_sum = 0;
    {
      const unsigned char* trailer = payload_end;
      if (!read_u64(&trailer, begin + bytes.size(), &stored_sum)) continue;
    }
    if (fnv1a(begin, bytes.size() - 8) != stored_sum) continue;
    if (std::string_view(bytes.data(), sizeof kMagic) !=
        std::string_view(kMagic, sizeof kMagic)) {
      continue;
    }
    cursor += sizeof kMagic;
    std::uint32_t version = 0;
    std::uint64_t hash = 0;
    std::uint32_t cell_index = 0;
    std::uint32_t trial_count = 0;
    if (!read_u32(&cursor, payload_end, &version) || version != kVersion) {
      continue;
    }
    if (!read_u64(&cursor, payload_end, &hash) || hash != spec_hash) continue;
    if (!read_u32(&cursor, payload_end, &cell_index) ||
        cell_index != static_cast<std::uint32_t>(c)) {
      continue;
    }
    if (!read_u32(&cursor, payload_end, &trial_count) ||
        trial_count != static_cast<std::uint32_t>(trials)) {
      continue;
    }
    CellCheckpoint cell;
    cell.cell_index = c;
    cell.ran.assign(static_cast<std::size_t>(trials), 0);
    cell.errored.assign(static_cast<std::size_t>(trials), 0);
    cell.summaries.resize(static_cast<std::size_t>(trials));
    bool ok = true;
    for (std::uint32_t t = 0; t < trial_count && ok; ++t) {
      if (cursor >= payload_end) {
        ok = false;
        break;
      }
      const unsigned char state = *cursor++;
      if (state != 1 && state != 2) {
        ok = false;
        break;
      }
      cell.ran[t] = 1;
      cell.errored[t] = state == 2 ? 1 : 0;
      ok = exec::read_trial_summary(&cursor, payload_end, &cell.summaries[t]);
    }
    if (!ok || cursor != payload_end) continue;
    loaded.push_back(std::move(cell));
  }
  return loaded;
}

}  // namespace rts::fault
