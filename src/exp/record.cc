#include "exp/record.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <type_traits>

#include "base/affinity.h"
#include "base/csv.h"
#include "base/logging.h"

namespace memtier {

namespace {

/** The host CPU's model name from /proc/cpuinfo, or "unknown". */
std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos)
            return line.substr(line.find_first_not_of(' ', colon + 1));
    }
    return "unknown";
}

void
writeJsonString(std::ostream &out, const std::string &s)
{
    out << '"';
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out << '\\' << c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char escaped[8];
            std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
            out << escaped;
        } else {
            out << c;
        }
    }
    out << '"';
}

void
writeJsonValue(std::ostream &out, const RecordValue &value)
{
    std::visit(
        [&out](const auto &v) {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, std::string>) {
                writeJsonString(out, v);
            } else if constexpr (std::is_same_v<T, bool>) {
                out << (v ? "true" : "false");
            } else if constexpr (std::is_same_v<T, double>) {
                // JSON has no inf or nan.
                if (!std::isfinite(v)) {
                    out << "null";
                    return;
                }
                char digits[32];
                const auto end =
                    std::to_chars(digits, digits + sizeof(digits), v).ptr;
                out.write(digits, end - digits);
            } else {
                out << v;
            }
        },
        value);
}

void
writeJsonField(std::ostream &out, const RecordField &field)
{
    writeJsonString(out, field.first);
    out << ": ";
    writeJsonValue(out, field.second);
}

void
writeJsonObject(std::ostream &out, const std::vector<RecordField> &fields)
{
    out << '{';
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i)
            out << ", ";
        writeJsonField(out, fields[i]);
    }
    out << '}';
}

std::vector<std::string>
keysOf(const RecordRow &row)
{
    std::vector<std::string> keys;
    for (const RecordField &field : row)
        keys.push_back(field.first);
    return keys;
}

}  // namespace

std::vector<RecordField>
recordHost()
{
#if defined(__clang__)
    const char *compiler = "clang " __clang_version__;
#else
    const char *compiler = "gcc " __VERSION__;
#endif
    return {{"cpu", cpuModel()},
            {"nproc", std::uint64_t{affinityCpuCount()}},
            {"compiler", std::string(compiler)},
            {"build_type", std::string(MEMTIER_BUILD_TYPE)}};
}

void
writeRecordJson(const Record &rec, std::ostream &out)
{
    out << "{\n  \"bench\": ";
    writeJsonString(out, rec.bench);
    for (const RecordField &field : rec.header) {
        out << ",\n  ";
        writeJsonField(out, field);
    }
    out << ",\n  \"host\": ";
    writeJsonObject(out, rec.host);
    out << ",\n  ";
    writeJsonString(out, rec.table);
    out << ": [";
    for (std::size_t i = 0; i < rec.rows.size(); ++i) {
        out << (i ? ",\n    " : "\n    ");
        writeJsonObject(out, rec.rows[i]);
    }
    out << "\n  ]\n}\n";
}

void
writeRecordCsv(const Record &rec, std::ostream &out)
{
    if (rec.rows.empty())
        return;
    CsvWriter csv(out);
    const std::vector<std::string> columns = keysOf(rec.rows.front());
    csv.header(columns);
    for (const RecordRow &row : rec.rows) {
        MEMTIER_ASSERT(keysOf(row) == columns,
                       "record rows differ in their columns");
        for (const RecordField &field : row) {
            std::visit(
                [&csv](const auto &v) {
                    if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                                 bool>) {
                        csv.cell(std::uint64_t{v});
                    } else {
                        csv.cell(v);
                    }
                },
                field.second);
        }
        csv.endRow();
    }
}

void
writeRecord(const Record &rec, const std::string &json_path,
            const std::string &csv_path)
{
    const auto write = [&rec](const std::string &path, auto how) {
        if (path.empty())
            return;
        std::ofstream out(path);
        if (!out)
            fatal("cannot open %s", path.c_str());
        how(rec, out);
    };
    write(json_path, writeRecordJson);
    write(csv_path, writeRecordCsv);
}

}  // namespace memtier
