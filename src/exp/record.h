/**
 * @file
 * The one output path of the benches: a record is the bench name, its
 * header scalars, the host that produced it and one named table. The
 * table's columns are the keys of its rows, so they are declared once,
 * where each row is built; the JSON record and the CSV of the same
 * table are both written from it.
 */

#ifndef MEMTIER_EXP_RECORD_H_
#define MEMTIER_EXP_RECORD_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace memtier {

/**
 * One value of a record. JSON prints a string escaped, a bool as
 * true/false, an integer exactly and a double in the shortest form
 * that reads back to the same double; CSV goes through CsvWriter (a
 * bool as 1/0, a double to 6 significant digits).
 */
using RecordValue =
    std::variant<std::string, bool, std::int64_t, std::uint64_t, double>;

/** A named value: a header scalar, a host field or one table cell. */
using RecordField = std::pair<std::string, RecordValue>;

/** One table row; every row of a table has the same keys in order. */
using RecordRow = std::vector<RecordField>;

/** What a bench writes. */
struct Record
{
    std::string bench;                ///< "serving_tail", ...
    std::vector<RecordField> header;  ///< Scalars naming the run.
    std::vector<RecordField> host;    ///< recordHost() for a bench.
    std::string table;                ///< "cells", "rows", "per_scale".
    std::vector<RecordRow> rows;
};

/**
 * The machine and build behind a record: "cpu" (model name from
 * /proc/cpuinfo), "nproc" (the CPUs in this process's affinity mask,
 * the width the cell pool defaults to), "compiler" and "build_type".
 */
std::vector<RecordField> recordHost();

/**
 * The JSON record: "bench", the header scalars, "host" as an object
 * and the table as an array of objects, one row per line.
 */
void writeRecordJson(const Record &rec, std::ostream &out);

/** The table as CSV: a header of the row keys, then one line a row. */
void writeRecordCsv(const Record &rec, std::ostream &out);

/**
 * Write the JSON record to @p json_path and the table's CSV to
 * @p csv_path; an empty path skips that file. fatal() on a file that
 * cannot be opened.
 */
void writeRecord(const Record &rec, const std::string &json_path,
                 const std::string &csv_path = "");

}  // namespace memtier

#endif  // MEMTIER_EXP_RECORD_H_
