#include "base/csv.h"

#include <cmath>

namespace memtier {

std::string
CsvWriter::escape(const std::string &value)
{
    const bool needs_quote =
        value.find_first_of(",\"\n") != std::string::npos;
    if (!needs_quote)
        return value;
    std::string quoted = "\"";
    for (char c : value) {
        if (c == '"')
            quoted += '"';
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

void
CsvWriter::header(const std::vector<std::string> &columns)
{
    for (std::size_t i = 0; i < columns.size(); ++i) {
        if (i)
            out << ',';
        out << escape(columns[i]);
    }
    out << '\n';
}

CsvWriter &
CsvWriter::cell(const std::string &value)
{
    pending.push_back(escape(value));
    return *this;
}

CsvWriter &
CsvWriter::cell(double value)
{
    std::ostringstream tmp;
    if (value == std::floor(value) && std::abs(value) < 1e15) {
        tmp << static_cast<long long>(value);
    } else {
        tmp.precision(6);
        tmp << value;
    }
    pending.push_back(tmp.str());
    return *this;
}

CsvWriter &
CsvWriter::cell(std::uint64_t value)
{
    pending.push_back(std::to_string(value));
    return *this;
}

CsvWriter &
CsvWriter::cell(std::int64_t value)
{
    pending.push_back(std::to_string(value));
    return *this;
}

void
CsvWriter::endRow()
{
    for (std::size_t i = 0; i < pending.size(); ++i) {
        if (i)
            out << ',';
        out << pending[i];
    }
    out << '\n';
    pending.clear();
    ++row_count;
}

}  // namespace memtier
