/**
 * @file
 * Minimal CSV emitter matching the artifact's CSV outputs (allocations,
 * memory traces, mapped samples).
 */

#ifndef MEMTIER_BASE_CSV_H_
#define MEMTIER_BASE_CSV_H_

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace memtier {

/**
 * Builds CSV text row by row. Values containing commas, quotes or
 * newlines are quoted per RFC 4180.
 */
class CsvWriter
{
  public:
    /** @param out stream that receives the CSV text. */
    explicit CsvWriter(std::ostream &out) : out(out) {}

    /** Emit the header row from column names. */
    void header(const std::vector<std::string> &columns);

    /** Begin accumulating a new row. */
    CsvWriter &cell(const std::string &value);

    /** Append a numeric cell. */
    CsvWriter &cell(double value);

    /** Append an integer cell. */
    CsvWriter &cell(std::uint64_t value);

    /** Append a signed integer cell. */
    CsvWriter &cell(std::int64_t value);

    /** Terminate the current row. */
    void endRow();

    /** Number of data rows written (excluding the header). */
    std::size_t rows() const { return row_count; }

  private:
    static std::string escape(const std::string &value);

    std::ostream &out;
    std::vector<std::string> pending;
    std::size_t row_count = 0;
};

}  // namespace memtier

#endif  // MEMTIER_BASE_CSV_H_
