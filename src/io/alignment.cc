#include "io/alignment.h"

#include <istream>
#include <ostream>
#include <sstream>

namespace gb {

void
AlnRecord::validate() const
{
    requireInput(!qname.empty(), "alignment record: empty read name");
    // Called per record on every store load: build messages on failure.
    if (cigar.queryLen() != seq.size()) {
        throw InputError("alignment record '" + qname +
                         "': CIGAR query length " +
                         std::to_string(cigar.queryLen()) +
                         " != sequence length " +
                         std::to_string(seq.size()));
    }
    if (!qual.empty() && qual.size() != seq.size()) {
        throw InputError("alignment record '" + qname +
                         "': quality length mismatch");
    }
}

void
writeAlignments(std::ostream& out, const std::vector<AlnRecord>& records)
{
    for (const auto& rec : records) {
        out << rec.qname << '\t' << (rec.reverse ? 16 : 0) << '\t'
            << rec.ref_id << '\t' << rec.pos + 1 << '\t'
            << static_cast<int>(rec.mapq) << '\t' << rec.cigar.str()
            << '\t' << rec.seq << '\t'
            << (rec.qual.empty() ? "*" : rec.qual) << '\n';
    }
}

std::vector<AlnRecord>
readAlignments(std::istream& in)
{
    std::vector<AlnRecord> out;
    std::string line;
    u64 line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        AlnRecord rec;
        int flag = 0;
        int mapq = 0;
        u64 pos1 = 0;
        std::string cigar_text;
        std::string qual;
        if (!(fields >> rec.qname >> flag >> rec.ref_id >> pos1 >> mapq >>
              cigar_text >> rec.seq >> qual)) {
            throw InputError("alignment TSV: short line " +
                             std::to_string(line_no));
        }
        requireInput(pos1 >= 1, "alignment TSV: 1-based pos must be >=1");
        rec.pos = pos1 - 1;
        rec.mapq = static_cast<u8>(mapq);
        rec.reverse = (flag & 16) != 0;
        rec.cigar = Cigar::parse(cigar_text);
        if (qual != "*") rec.qual = qual;
        rec.validate();
        out.push_back(std::move(rec));
    }
    return out;
}

} // namespace gb
