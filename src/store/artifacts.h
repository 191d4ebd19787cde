/**
 * @file
 * Serializers between suite artifacts and gb::store containers.
 *
 * Artifact families (the expensive prepare()-phase products):
 *   - FM-index / BWT        (src/index) — sections "<p>.meta",
 *     "<p>.counts", "<p>.bwt", "<p>.sa"; loadable as an owning copy or
 *     as a zero-copy view over an mmap'd reader.
 *   - k-mer count tables    (src/kmer) — "<p>.meta", "<p>.keys",
 *     "<p>.counts".
 *   - synthesized datasets  (src/simdata) — ragged rows
 *     ("<p>.blob" + "<p>.offsets") of encoded reads, chaining anchors,
 *     reference strings and nanopore event streams, plus aligned-read
 *     records.
 *
 * All loaders verify the section digests by default (Verify::kDigest);
 * pass Verify::kNone to trade corruption detection for a strictly
 * O(pages touched) load.
 */
#ifndef GB_STORE_ARTIFACTS_H
#define GB_STORE_ARTIFACTS_H

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "abea/event_detect.h"
#include "index/fm_index.h"
#include "io/alignment.h"
#include "kmer/kmer_counter.h"
#include "store/container.h"
#include "util/common.h"

namespace gb::store {

/** Whether a loader checks section digests before trusting payloads. */
enum class Verify
{
    kDigest,
    kNone,
};

// ---------------------------------------------------------------------
// FM-index

void addFmIndex(StoreWriter& writer, const FmIndex& fm,
                std::string_view prefix = "fm");

/** Owning load (works in both reader modes). */
FmIndex readFmIndex(StoreReader& reader, std::string_view prefix = "fm",
                    Verify verify = Verify::kDigest);

/**
 * Zero-copy load: the index's flat arrays view the reader's mapping
 * and the reader is kept alive by the returned index. Requires a
 * reader opened in ReadMode::kMmap (falls back to an owning load for
 * stream readers).
 */
FmIndex viewFmIndex(std::shared_ptr<StoreReader> reader,
                    std::string_view prefix = "fm",
                    Verify verify = Verify::kDigest);

// ---------------------------------------------------------------------
// k-mer count table

void addKmerCounter(StoreWriter& writer, const KmerCounter& table,
                    std::string_view prefix = "kmer");

KmerCounter readKmerCounter(StoreReader& reader,
                            std::string_view prefix = "kmer",
                            Verify verify = Verify::kDigest);

// ---------------------------------------------------------------------
// Synthesized datasets: ragged rows stored as blob + offsets

/**
 * Ragged rows of a trivially-copyable, padding-free element type:
 * "<p>.blob" holds every row back to back, "<p>.offsets" the n+1
 * prefix element offsets. Padding bytes would make section digests
 * nondeterministic, so T must have unique object representations.
 * Instantiated for u8 (encoded reads), u32 and gb::Anchor.
 */
template <typename T>
void addPodRows(StoreWriter& writer, std::string_view prefix,
                std::span<const std::vector<T>> rows);
template <typename T>
std::vector<std::vector<T>> readPodRows(StoreReader& reader,
                                        std::string_view prefix,
                                        Verify verify = Verify::kDigest);

/** Reference segments / basecalled sequences. */
void addStringRows(StoreWriter& writer, std::string_view prefix,
                   std::span<const std::string> rows);
std::vector<std::string> readStringRows(
    StoreReader& reader, std::string_view prefix,
    Verify verify = Verify::kDigest);

/** Per-read nanopore event streams (abea inputs). */
void addEventRows(StoreWriter& writer, std::string_view prefix,
                  std::span<const std::vector<Event>> rows);
std::vector<std::vector<Event>> readEventRows(
    StoreReader& reader, std::string_view prefix,
    Verify verify = Verify::kDigest);

/**
 * Aligned-read records: qname/seq/qual as string rows
 * ("<p>.qname.*", "<p>.seq.*", "<p>.qual.*"), the fixed fields as one
 * packed record per read ("<p>.fields"), and each CIGAR packed
 * BAM-style as len<<4|op u32 rows ("<p>.cigar.*"). The loader rejects
 * unknown CIGAR ops and validates every record.
 */
void addAlnRecords(StoreWriter& writer, std::string_view prefix,
                   std::span<const AlnRecord> records);
std::vector<AlnRecord> readAlnRecords(StoreReader& reader,
                                      std::string_view prefix,
                                      Verify verify = Verify::kDigest);

} // namespace gb::store

#endif // GB_STORE_ARTIFACTS_H
