#include "store/artifacts.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "chain/chain.h"

namespace gb::store {

namespace {

std::string
sec(std::string_view prefix, const char* suffix)
{
    return std::string(prefix) + "." + suffix;
}

/** Fixed-layout meta block for the FM-index (no padding: 72 bytes). */
struct FmMeta
{
    u64 ref_len;
    u64 c[FmIndex::kAlphabet + 1];
    u32 block_len;
    u32 reserved;
};
static_assert(sizeof(FmMeta) == 72 &&
              std::is_trivially_copyable_v<FmMeta>);

/** Fixed-layout meta block for the k-mer table (8 bytes). */
struct KmerMeta
{
    u32 scheme;
    u32 reserved;
};
static_assert(sizeof(KmerMeta) == 8);

/** Packed on-disk form of gb::Event (24 bytes, no padding — the
 *  in-memory struct has 4 tail-padding bytes that would make digests
 *  nondeterministic). */
struct StoredEvent
{
    u64 start;
    u32 length;
    float mean;
    float stdv;
    u32 reserved;
};
static_assert(sizeof(StoredEvent) == 24 &&
              std::is_trivially_copyable_v<StoredEvent>);

/** Packed on-disk form of an AlnRecord's fixed fields (16 bytes, no
 *  padding). */
struct StoredAlnFields
{
    u64 pos;
    u32 ref_id;
    u8 mapq;
    u8 reverse;
    u16 reserved;
};
static_assert(sizeof(StoredAlnFields) == 16 &&
              std::has_unique_object_representations_v<StoredAlnFields>);

/** CIGAR units pack BAM-style: length in the high 28 bits, op in the
 *  low 4. */
constexpr u32 kCigarOpBits = 4;
constexpr u32 kNumCigarOps = static_cast<u32>(CigarOp::kDiff) + 1;

void
maybeVerify(StoreReader& reader, Verify verify,
            std::initializer_list<std::string> names)
{
    if (verify != Verify::kDigest) return;
    for (const auto& name : names) reader.verifySection(name);
}

/** Offsets section: n+1 prefix byte-offsets into the blob section. */
template <typename Rows, typename SizeOf>
std::vector<u64>
rowOffsets(const Rows& rows, SizeOf size_of)
{
    std::vector<u64> offsets;
    offsets.reserve(rows.size() + 1);
    u64 total = 0;
    offsets.push_back(0);
    for (const auto& row : rows) {
        total += size_of(row);
        offsets.push_back(total);
    }
    return offsets;
}

std::span<const u64>
checkedOffsets(StoreReader& reader, std::string_view prefix,
               u64 blob_elems)
{
    const auto offsets = reader.sectionAs<u64>(sec(prefix, "offsets"));
    requireInput(!offsets.empty() && offsets.front() == 0 &&
                     offsets.back() == blob_elems,
                 "store: " + sec(prefix, "offsets") +
                     " inconsistent with blob size");
    requireInput(std::is_sorted(offsets.begin(), offsets.end()),
                 "store: " + sec(prefix, "offsets") + " not monotonic");
    return offsets;
}

} // namespace

// ---------------------------------------------------------------------
// FM-index

void
addFmIndex(StoreWriter& writer, const FmIndex& fm,
           std::string_view prefix)
{
    FmMeta meta{};
    meta.ref_len = fm.referenceLength();
    const auto& c = fm.cumulative();
    for (size_t i = 0; i < c.size(); ++i) meta.c[i] = c[i];
    meta.block_len = fm.blockLen();
    writer.addPod(sec(prefix, "meta"), meta);
    writer.addVec(sec(prefix, "counts"), fm.occCounts());
    writer.addVec(sec(prefix, "bwt"), fm.bwtData());
    writer.addVec(sec(prefix, "sa"), fm.saSamples());
}

namespace {

/** Shared section fetch for both FM-index load paths. */
struct FmSections
{
    FmMeta meta;
    std::array<u64, FmIndex::kAlphabet + 1> c;
    std::span<const u32> counts;
    std::span<const u8> bwt;
    std::span<const u32> sa;
};

FmSections
fetchFmSections(StoreReader& reader, std::string_view prefix,
                Verify verify)
{
    maybeVerify(reader, verify,
                {sec(prefix, "meta"), sec(prefix, "counts"),
                 sec(prefix, "bwt"), sec(prefix, "sa")});
    FmSections s;
    const auto meta_bytes = reader.section(sec(prefix, "meta"));
    requireInput(meta_bytes.size() == sizeof(FmMeta),
                 "store: " + sec(prefix, "meta") + " has wrong size");
    std::memcpy(&s.meta, meta_bytes.data(), sizeof(FmMeta));
    for (size_t i = 0; i < s.c.size(); ++i) s.c[i] = s.meta.c[i];
    s.counts = reader.sectionAs<u32>(sec(prefix, "counts"));
    s.bwt = reader.sectionAs<u8>(sec(prefix, "bwt"));
    s.sa = reader.sectionAs<u32>(sec(prefix, "sa"));
    return s;
}

} // namespace

FmIndex
readFmIndex(StoreReader& reader, std::string_view prefix, Verify verify)
{
    const FmSections s = fetchFmSections(reader, prefix, verify);
    return FmIndex::fromParts(
        s.meta.ref_len, s.meta.block_len, s.c,
        {s.counts.begin(), s.counts.end()},
        {s.bwt.begin(), s.bwt.end()}, {s.sa.begin(), s.sa.end()});
}

FmIndex
viewFmIndex(std::shared_ptr<StoreReader> reader, std::string_view prefix,
            Verify verify)
{
    requireInput(reader != nullptr, "store: viewFmIndex(null reader)");
    if (reader->mode() != ReadMode::kMmap) {
        // Stream readers hand out cached buffers that die with the
        // cache; an owning copy is the safe equivalent.
        return readFmIndex(*reader, prefix, verify);
    }
    const FmSections s = fetchFmSections(*reader, prefix, verify);
    return FmIndex::fromViews(s.meta.ref_len, s.meta.block_len, s.c,
                              s.counts, s.bwt, s.sa, std::move(reader));
}

// ---------------------------------------------------------------------
// k-mer count table

void
addKmerCounter(StoreWriter& writer, const KmerCounter& table,
               std::string_view prefix)
{
    KmerMeta meta{};
    meta.scheme = static_cast<u32>(table.scheme());
    writer.addPod(sec(prefix, "meta"), meta);
    writer.addVec(sec(prefix, "keys"), table.keys());
    writer.addVec(sec(prefix, "counts"), table.rawCounts());
}

KmerCounter
readKmerCounter(StoreReader& reader, std::string_view prefix,
                Verify verify)
{
    maybeVerify(reader, verify,
                {sec(prefix, "meta"), sec(prefix, "keys"),
                 sec(prefix, "counts")});
    const auto meta_bytes = reader.section(sec(prefix, "meta"));
    requireInput(meta_bytes.size() == sizeof(KmerMeta),
                 "store: " + sec(prefix, "meta") + " has wrong size");
    KmerMeta meta;
    std::memcpy(&meta, meta_bytes.data(), sizeof(KmerMeta));
    requireInput(meta.scheme <=
                     static_cast<u32>(HashScheme::kRobinHood),
                 "store: " + sec(prefix, "meta") +
                     " has unknown hash scheme");
    const auto keys = reader.sectionAs<u64>(sec(prefix, "keys"));
    const auto counts = reader.sectionAs<u16>(sec(prefix, "counts"));
    return KmerCounter::fromParts(static_cast<HashScheme>(meta.scheme),
                                  {keys.begin(), keys.end()},
                                  {counts.begin(), counts.end()});
}

// ---------------------------------------------------------------------
// Ragged rows

template <typename T>
void
addPodRows(StoreWriter& writer, std::string_view prefix,
           std::span<const std::vector<T>> rows)
{
    static_assert(std::has_unique_object_representations_v<T>,
                  "padding bytes would make section digests "
                  "nondeterministic");
    const auto offsets =
        rowOffsets(rows, [](const std::vector<T>& r) { return r.size(); });
    std::vector<T> blob;
    blob.reserve(offsets.back());
    for (const auto& row : rows) {
        blob.insert(blob.end(), row.begin(), row.end());
    }
    writer.addVec(sec(prefix, "blob"), std::span<const T>(blob));
    writer.addVec(sec(prefix, "offsets"),
                  std::span<const u64>(offsets));
}

template <typename T>
std::vector<std::vector<T>>
readPodRows(StoreReader& reader, std::string_view prefix, Verify verify)
{
    static_assert(std::has_unique_object_representations_v<T>,
                  "padding bytes would make section digests "
                  "nondeterministic");
    maybeVerify(reader, verify,
                {sec(prefix, "blob"), sec(prefix, "offsets")});
    const auto blob = reader.sectionAs<T>(sec(prefix, "blob"));
    const auto offsets = checkedOffsets(reader, prefix, blob.size());
    std::vector<std::vector<T>> rows;
    rows.reserve(offsets.size() - 1);
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
        rows.emplace_back(blob.begin() + offsets[i],
                          blob.begin() + offsets[i + 1]);
    }
    return rows;
}

#define GB_POD_ROWS(T)                                                 \
    template void addPodRows<T>(StoreWriter&, std::string_view,        \
                                std::span<const std::vector<T>>);      \
    template std::vector<std::vector<T>> readPodRows<T>(               \
        StoreReader&, std::string_view, Verify);
GB_POD_ROWS(u8)
GB_POD_ROWS(u32)
GB_POD_ROWS(Anchor)
#undef GB_POD_ROWS

namespace {

/** String rows picked by `get` from each element of `items`, without
 *  copying them into a row vector first. */
template <typename Items, typename Get>
void
addStringColumn(StoreWriter& writer, std::string_view prefix,
                const Items& items, Get get)
{
    const auto offsets = rowOffsets(
        items, [&](const auto& item) { return get(item).size(); });
    std::string blob;
    blob.reserve(offsets.back());
    for (const auto& item : items) blob += get(item);
    writer.add(sec(prefix, "blob"), blob.data(), blob.size());
    writer.addVec(sec(prefix, "offsets"),
                  std::span<const u64>(offsets));
}

} // namespace

void
addStringRows(StoreWriter& writer, std::string_view prefix,
              std::span<const std::string> rows)
{
    addStringColumn(writer, prefix, rows,
                    [](const std::string& r) -> const std::string& {
                        return r;
                    });
}

std::vector<std::string>
readStringRows(StoreReader& reader, std::string_view prefix,
               Verify verify)
{
    maybeVerify(reader, verify,
                {sec(prefix, "blob"), sec(prefix, "offsets")});
    const auto blob = reader.sectionAs<u8>(sec(prefix, "blob"));
    const auto offsets = checkedOffsets(reader, prefix, blob.size());
    std::vector<std::string> rows;
    rows.reserve(offsets.size() - 1);
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
        rows.emplace_back(
            reinterpret_cast<const char*>(blob.data()) + offsets[i],
            offsets[i + 1] - offsets[i]);
    }
    return rows;
}

void
addEventRows(StoreWriter& writer, std::string_view prefix,
             std::span<const std::vector<Event>> rows)
{
    const auto offsets = rowOffsets(
        rows, [](const std::vector<Event>& r) { return r.size(); });
    std::vector<StoredEvent> blob;
    blob.reserve(offsets.back());
    for (const auto& row : rows) {
        for (const Event& e : row) {
            StoredEvent se{};
            se.start = e.start;
            se.length = e.length;
            se.mean = e.mean;
            se.stdv = e.stdv;
            blob.push_back(se);
        }
    }
    writer.addVec(sec(prefix, "blob"),
                  std::span<const StoredEvent>(blob));
    writer.addVec(sec(prefix, "offsets"),
                  std::span<const u64>(offsets));
}

std::vector<std::vector<Event>>
readEventRows(StoreReader& reader, std::string_view prefix,
              Verify verify)
{
    maybeVerify(reader, verify,
                {sec(prefix, "blob"), sec(prefix, "offsets")});
    const auto blob =
        reader.sectionAs<StoredEvent>(sec(prefix, "blob"));
    const auto offsets = checkedOffsets(reader, prefix, blob.size());
    std::vector<std::vector<Event>> rows;
    rows.reserve(offsets.size() - 1);
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
        std::vector<Event> row;
        row.reserve(offsets[i + 1] - offsets[i]);
        for (u64 j = offsets[i]; j < offsets[i + 1]; ++j) {
            Event e;
            e.start = blob[j].start;
            e.length = blob[j].length;
            e.mean = blob[j].mean;
            e.stdv = blob[j].stdv;
            row.push_back(e);
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

// ---------------------------------------------------------------------
// Aligned-read records

void
addAlnRecords(StoreWriter& writer, std::string_view prefix,
              std::span<const AlnRecord> records)
{
    std::vector<StoredAlnFields> fields;
    std::vector<std::vector<u32>> cigars;
    fields.reserve(records.size());
    cigars.reserve(records.size());
    for (const AlnRecord& rec : records) {
        StoredAlnFields f{};
        f.pos = rec.pos;
        f.ref_id = rec.ref_id;
        f.mapq = rec.mapq;
        f.reverse = rec.reverse ? 1 : 0;
        fields.push_back(f);
        // CigarUnit carries 3 padding bytes, so it is never written
        // raw.
        std::vector<u32> packed;
        packed.reserve(rec.cigar.units().size());
        for (const CigarUnit& u : rec.cigar.units()) {
            if (u.len >= (1u << (32 - kCigarOpBits))) {
                throw InputError("store: CIGAR length too large to pack");
            }
            packed.push_back(u.len << kCigarOpBits |
                             static_cast<u32>(u.op));
        }
        cigars.push_back(std::move(packed));
    }
    addStringColumn(writer, sec(prefix, "qname"), records,
                    [](const AlnRecord& r) -> const std::string& {
                        return r.qname;
                    });
    addStringColumn(writer, sec(prefix, "seq"), records,
                    [](const AlnRecord& r) -> const std::string& {
                        return r.seq;
                    });
    addStringColumn(writer, sec(prefix, "qual"), records,
                    [](const AlnRecord& r) -> const std::string& {
                        return r.qual;
                    });
    writer.addVec(sec(prefix, "fields"),
                  std::span<const StoredAlnFields>(fields));
    addPodRows<u32>(writer, sec(prefix, "cigar"), cigars);
}

std::vector<AlnRecord>
readAlnRecords(StoreReader& reader, std::string_view prefix,
               Verify verify)
{
    maybeVerify(reader, verify, {sec(prefix, "fields")});
    auto qnames = readStringRows(reader, sec(prefix, "qname"), verify);
    auto seqs = readStringRows(reader, sec(prefix, "seq"), verify);
    auto quals = readStringRows(reader, sec(prefix, "qual"), verify);
    const auto fields =
        reader.sectionAs<StoredAlnFields>(sec(prefix, "fields"));
    const auto cigars =
        readPodRows<u32>(reader, sec(prefix, "cigar"), verify);
    const size_t n = fields.size();
    requireInput(qnames.size() == n && seqs.size() == n &&
                     quals.size() == n && cigars.size() == n,
                 "store: " + std::string(prefix) +
                     " record sections disagree on the record count");

    std::vector<AlnRecord> records(n);
    for (size_t i = 0; i < n; ++i) {
        AlnRecord& rec = records[i];
        if (fields[i].reverse > 1) {
            throw InputError("store: " + sec(prefix, "fields") +
                             " has a bad strand flag");
        }
        rec.qname = std::move(qnames[i]);
        rec.ref_id = fields[i].ref_id;
        rec.pos = fields[i].pos;
        rec.mapq = fields[i].mapq;
        rec.reverse = fields[i].reverse != 0;
        std::vector<CigarUnit> units;
        units.reserve(cigars[i].size());
        for (const u32 code : cigars[i]) {
            const u32 op = code & ((1u << kCigarOpBits) - 1);
            // Not requireInput: its message would be built per unit.
            if (op >= kNumCigarOps) {
                throw InputError("store: " + sec(prefix, "cigar") +
                                 " has an unknown CIGAR op");
            }
            units.push_back(CigarUnit{code >> kCigarOpBits,
                                      static_cast<CigarOp>(op)});
        }
        rec.cigar = Cigar(std::move(units));
        rec.seq = std::move(seqs[i]);
        rec.qual = std::move(quals[i]);
        rec.validate();
    }
    return records;
}

} // namespace gb::store
