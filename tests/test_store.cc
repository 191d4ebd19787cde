/**
 * @file
 * Tests for the gb::store artifact store: container round trips in
 * both reader modes, corruption/truncation/version detection, the
 * FM-index / k-mer-table / dataset / anchor / alignment-record
 * serializers, and the build-or-load cache (including warm-vs-cold
 * kernel-input identity).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "arch/probe.h"
#include "chain/chain.h"
#include "core/benchmark.h"
#include "index/fm_index.h"
#include "io/alignment.h"
#include "io/dna.h"
#include "kmer/kmer_counter.h"
#include "store/artifacts.h"
#include "store/cache.h"
#include "store/container.h"
#include "util/hash.h"
#include "util/rng.h"

namespace gb {
namespace {

using store::ReadMode;
using store::StoreReader;
using store::StoreWriter;

/** Fresh per-test scratch directory, removed on destruction. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        const auto* info =
            testing::UnitTest::GetInstance()->current_test_info();
        path_ = std::filesystem::temp_directory_path() /
                (std::string("gb_store_") + info->test_suite_name() +
                 "_" + info->name());
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir() { std::filesystem::remove_all(path_); }

    std::string
    file(const std::string& name) const
    {
        return (path_ / name).string();
    }
    std::string dir() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

void
flipByte(const std::string& path, u64 offset)
{
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
}

std::string
writeSample(const ScratchDir& scratch)
{
    const std::string path = scratch.file("sample.gbs");
    StoreWriter writer(path);
    std::vector<u32> numbers(1000);
    for (u32 i = 0; i < numbers.size(); ++i) numbers[i] = i * 7 + 1;
    writer.addVec("numbers", std::span<const u32>(numbers));
    const std::string text = "the quick brown fox";
    writer.add("text", text.data(), text.size());
    writer.addPod("answer", u64{42});
    writer.finish();
    return path;
}

TEST(StoreContainer, RoundTripBothModes)
{
    ScratchDir scratch;
    const std::string path = writeSample(scratch);

    for (ReadMode mode : {ReadMode::kMmap, ReadMode::kStream}) {
        auto reader = StoreReader::open(path, mode);
        EXPECT_EQ(reader.sections().size(), 3u);
        EXPECT_TRUE(reader.has("numbers"));
        EXPECT_TRUE(reader.has("text"));
        EXPECT_FALSE(reader.has("missing"));

        const auto numbers = reader.sectionAs<u32>("numbers");
        ASSERT_EQ(numbers.size(), 1000u);
        EXPECT_EQ(numbers[0], 1u);
        EXPECT_EQ(numbers[999], 999u * 7 + 1);

        const auto text = reader.section("text");
        EXPECT_EQ(std::string(text.begin(), text.end()),
                  "the quick brown fox");

        const auto answer = reader.sectionAs<u64>("answer");
        ASSERT_EQ(answer.size(), 1u);
        EXPECT_EQ(answer[0], 42u);

        EXPECT_NO_THROW(reader.verifyAll());
        EXPECT_THROW(reader.section("missing"), InputError);
    }
}

TEST(StoreContainer, MmapAndStreamAgreeByteForByte)
{
    ScratchDir scratch;
    const std::string path = writeSample(scratch);
    auto mmap_reader = StoreReader::open(path, ReadMode::kMmap);
    auto stream_reader = StoreReader::open(path, ReadMode::kStream);
    ASSERT_EQ(mmap_reader.sections().size(),
              stream_reader.sections().size());
    for (const auto& entry : mmap_reader.sections()) {
        const auto a = mmap_reader.section(entry.name);
        const auto b = stream_reader.section(entry.name);
        ASSERT_EQ(a.size(), b.size()) << entry.name;
        EXPECT_EQ(std::vector<u8>(a.begin(), a.end()),
                  std::vector<u8>(b.begin(), b.end()))
            << entry.name;
    }
}

TEST(StoreContainer, SectionsAreAligned)
{
    ScratchDir scratch;
    const std::string path = writeSample(scratch);
    auto reader = StoreReader::open(path);
    for (const auto& entry : reader.sections()) {
        EXPECT_EQ(entry.offset % store::kAlign, 0u) << entry.name;
    }
}

TEST(StoreContainer, DetectsFlippedPayloadByte)
{
    ScratchDir scratch;
    const std::string path = writeSample(scratch);
    // Flip one byte inside every section in turn; each must fail.
    const auto toc = StoreReader::open(path).sections();
    for (const auto& entry : toc) {
        const std::string copy = scratch.file("flip.gbs");
        std::filesystem::copy_file(
            path, copy,
            std::filesystem::copy_options::overwrite_existing);
        flipByte(copy, entry.offset + entry.size / 2);
        auto reader = StoreReader::open(copy);
        EXPECT_THROW(reader.verifySection(entry.name), InputError)
            << entry.name;
        EXPECT_THROW(reader.verifyAll(), InputError) << entry.name;
    }
}

TEST(StoreContainer, DetectsTocCorruption)
{
    ScratchDir scratch;
    const std::string path = writeSample(scratch);
    const u64 size = std::filesystem::file_size(path);
    flipByte(path, size - 10); // inside the trailing TOC block
    EXPECT_THROW(StoreReader::open(path), InputError);
}

TEST(StoreContainer, DetectsTruncation)
{
    ScratchDir scratch;
    const std::string path = writeSample(scratch);
    const u64 size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size / 2);
    EXPECT_THROW(StoreReader::open(path), InputError);
    std::filesystem::resize_file(path, 10); // shorter than the header
    EXPECT_THROW(StoreReader::open(path), InputError);
}

TEST(StoreContainer, RejectsBadMagicAndVersion)
{
    ScratchDir scratch;
    const std::string garbage = scratch.file("garbage.gbs");
    {
        std::ofstream out(garbage, std::ios::binary);
        for (int i = 0; i < 500; ++i) out.put(static_cast<char>(i));
    }
    EXPECT_THROW(StoreReader::open(garbage), InputError);

    const std::string path = writeSample(scratch);
    flipByte(path, 4); // header version field
    try {
        StoreReader::open(path);
        FAIL() << "expected version error";
    } catch (const InputError& e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos);
    }
}

TEST(StoreContainer, WriterRejectsBadSections)
{
    ScratchDir scratch;
    StoreWriter writer(scratch.file("bad.gbs"));
    const u64 v = 1;
    writer.addPod("dup", v);
    EXPECT_THROW(writer.addPod("dup", v), InputError);
    EXPECT_THROW(writer.addPod("", v), InputError);
    EXPECT_THROW(writer.addPod(std::string(60, 'x'), v), InputError);
}

TEST(StoreContainer, UnfinishedWriterLeavesNoFile)
{
    ScratchDir scratch;
    const std::string path = scratch.file("never.gbs");
    {
        StoreWriter writer(path);
        const u64 v = 7;
        writer.addPod("v", v);
        // no finish()
    }
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(StoreHash, Xxhash64KnownVectors)
{
    // Reference values from the xxHash specification test suite.
    EXPECT_EQ(xxhash64(nullptr, 0, 0), 0xef46db3751d8e999ULL);
    const u8 one = 42;
    EXPECT_EQ(xxhash64(&one, 1, 0), 0x0a9edecebeb03ae4ULL);
    const std::string hello = "Hello, world!";
    EXPECT_EQ(xxhash64(hello.data(), hello.size(), 0),
              0xf58336a78b6f9476ULL);
    const std::string long_text(101, 'a');
    EXPECT_EQ(xxhash64(long_text.data(), long_text.size(), 0),
              0x05d162fa42c9ea90ULL);
}

TEST(StoreHash, KeyMixerIsOrderAndValueSensitive)
{
    const u64 a = KeyMixer().mix("fmi/v1").mix(1).mix(2).value();
    const u64 b = KeyMixer().mix("fmi/v1").mix(2).mix(1).value();
    const u64 c = KeyMixer().mix("fmi/v2").mix(1).mix(2).value();
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a, KeyMixer().mix("fmi/v1").mix(1).mix(2).value());
}

// ---------------------------------------------------------------------
// Artifact serializers

std::string
randomReference(u64 length, u64 seed)
{
    Rng rng(seed);
    std::string ref;
    ref.reserve(length);
    for (u64 i = 0; i < length; ++i) ref += "ACGT"[rng.below(4)];
    return ref;
}

TEST(StoreArtifacts, FmIndexRoundTripAndView)
{
    ScratchDir scratch;
    const std::string ref = randomReference(5000, 33);
    const FmIndex original = FmIndex::build(ref, 128);

    const std::string path = scratch.file("fm.gbs");
    {
        StoreWriter writer(path);
        store::addFmIndex(writer, original);
        writer.finish();
    }

    auto stream_reader = StoreReader::open(path, ReadMode::kStream);
    const FmIndex copied = store::readFmIndex(stream_reader);
    auto mmap_reader = std::make_shared<StoreReader>(
        StoreReader::open(path, ReadMode::kMmap));
    const FmIndex viewed = store::viewFmIndex(mmap_reader);
    EXPECT_FALSE(copied.isView());
    if (mmap_reader->mode() == ReadMode::kMmap) {
        EXPECT_TRUE(viewed.isView());
    }

    for (const FmIndex* loaded : {&copied, &viewed}) {
        EXPECT_EQ(loaded->referenceLength(),
                  original.referenceLength());
        EXPECT_EQ(loaded->blockLen(), original.blockLen());
        EXPECT_EQ(loaded->bwtLength(), original.bwtLength());
        for (const char* pattern :
             {"ACGT", "TTT", "GATTACA", "CCGG"}) {
            EXPECT_EQ(loaded->count(pattern), original.count(pattern))
                << pattern;
        }
        // SMEMs exercise occ tables, cumulative counts and the SA.
        const auto codes = encodeDna(ref.substr(100, 80));
        std::vector<Smem> expect_mems;
        std::vector<Smem> got_mems;
        NullProbe probe;
        original.smems(std::span<const u8>(codes), 19, expect_mems,
                       probe);
        loaded->smems(std::span<const u8>(codes), 19, got_mems, probe);
        ASSERT_EQ(got_mems.size(), expect_mems.size());
        for (size_t i = 0; i < got_mems.size(); ++i) {
            EXPECT_EQ(got_mems[i].k, expect_mems[i].k);
            EXPECT_EQ(got_mems[i].s, expect_mems[i].s);
        }
    }

    // The copying loader must be bitwise-identical to the original.
    const auto same = [](auto a, auto b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    };
    EXPECT_TRUE(same(copied.occCounts(), original.occCounts()));
    EXPECT_TRUE(same(copied.bwtData(), original.bwtData()));
    EXPECT_TRUE(same(copied.saSamples(), original.saSamples()));
}

TEST(StoreArtifacts, FmIndexLoadDetectsCorruption)
{
    ScratchDir scratch;
    const FmIndex fm = FmIndex::build(randomReference(2000, 7));
    const std::string path = scratch.file("fm.gbs");
    {
        StoreWriter writer(path);
        store::addFmIndex(writer, fm);
        writer.finish();
    }
    // Flip a byte inside the BWT payload.
    u64 bwt_offset = 0;
    const auto probe_reader = StoreReader::open(path);
    for (const auto& entry : probe_reader.sections()) {
        if (std::string(entry.name) == "fm.bwt") {
            bwt_offset = entry.offset + entry.size / 3;
        }
    }
    ASSERT_NE(bwt_offset, 0u);
    flipByte(path, bwt_offset);

    auto reader = std::make_shared<StoreReader>(StoreReader::open(path));
    EXPECT_THROW(store::viewFmIndex(reader), InputError);
    auto stream_reader = StoreReader::open(path, ReadMode::kStream);
    EXPECT_THROW(store::readFmIndex(stream_reader), InputError);
}

TEST(StoreArtifacts, KmerCounterRoundTrip)
{
    ScratchDir scratch;
    KmerCounter table(10, HashScheme::kRobinHood);
    Rng rng(55);
    std::vector<u64> inserted;
    NullProbe probe;
    for (int i = 0; i < 600; ++i) {
        const u64 kmer = rng.below(1u << 20);
        table.add(kmer, probe);
        inserted.push_back(kmer);
    }

    const std::string path = scratch.file("kmer.gbs");
    {
        StoreWriter writer(path);
        store::addKmerCounter(writer, table);
        writer.finish();
    }
    auto reader = StoreReader::open(path);
    const KmerCounter loaded = store::readKmerCounter(reader);
    EXPECT_EQ(loaded.capacity(), table.capacity());
    EXPECT_EQ(loaded.size(), table.size());
    EXPECT_EQ(loaded.scheme(), table.scheme());
    for (u64 kmer : inserted) {
        EXPECT_EQ(loaded.count(kmer), table.count(kmer)) << kmer;
    }
}

TEST(StoreArtifacts, RaggedRowsRoundTrip)
{
    ScratchDir scratch;
    const std::vector<std::vector<u8>> byte_rows{
        {0, 1, 2, 3}, {}, {3, 3, 3}, {0}};
    const std::vector<std::string> string_rows{"ACGT", "", "TTAGGG"};
    std::vector<std::vector<Event>> event_rows(3);
    event_rows[0].push_back(Event{10, 5, 80.5f, 1.25f});
    event_rows[0].push_back(Event{15, 3, 91.0f, 0.5f});
    event_rows[2].push_back(Event{0, 1, 60.0f, 2.0f});

    const std::string path = scratch.file("rows.gbs");
    {
        StoreWriter writer(path);
        store::addPodRows<u8>(writer, "bytes",
                           std::span<const std::vector<u8>>(byte_rows));
        store::addStringRows(
            writer, "strings",
            std::span<const std::string>(string_rows));
        store::addEventRows(
            writer, "events",
            std::span<const std::vector<Event>>(event_rows));
        writer.finish();
    }

    for (ReadMode mode : {ReadMode::kMmap, ReadMode::kStream}) {
        auto reader = StoreReader::open(path, mode);
        EXPECT_EQ(store::readPodRows<u8>(reader, "bytes"), byte_rows);
        EXPECT_EQ(store::readStringRows(reader, "strings"),
                  string_rows);
        const auto events = store::readEventRows(reader, "events");
        ASSERT_EQ(events.size(), event_rows.size());
        for (size_t i = 0; i < events.size(); ++i) {
            ASSERT_EQ(events[i].size(), event_rows[i].size()) << i;
            for (size_t j = 0; j < events[i].size(); ++j) {
                EXPECT_EQ(events[i][j].start, event_rows[i][j].start);
                EXPECT_EQ(events[i][j].length,
                          event_rows[i][j].length);
                EXPECT_EQ(events[i][j].mean, event_rows[i][j].mean);
                EXPECT_EQ(events[i][j].stdv, event_rows[i][j].stdv);
            }
        }
    }
}

TEST(StoreArtifacts, AnchorRowsRoundTrip)
{
    ScratchDir scratch;
    const std::vector<std::vector<Anchor>> rows{
        {{15, 14, 15}, {40, 38, 15}, {0xFFFFFFFFu, 7, 15}},
        {},
        {{1, 2, 3}}};
    const std::string path = scratch.file("anchors.gbs");
    {
        StoreWriter writer(path);
        store::addPodRows<Anchor>(writer, "anchors", rows);
        writer.finish();
    }
    for (ReadMode mode : {ReadMode::kMmap, ReadMode::kStream}) {
        auto reader = StoreReader::open(path, mode);
        EXPECT_EQ(store::readPodRows<Anchor>(reader, "anchors"), rows);
    }
}

/** Records covering every CIGAR op, both strands, empty and present
 *  qualities, and a non-default ref_id / mapq. */
std::vector<AlnRecord>
sampleAlnRecords()
{
    std::vector<AlnRecord> records(3);
    records[0].qname = "read/1";
    records[0].pos = 100;
    records[0].cigar = Cigar::parse("2S3M1I2=1X2D4M");
    records[0].seq = "ACGTACGTACGTA";
    records[0].qual = "IIIII#####!!!";
    records[1].qname = "r2";
    records[1].ref_id = 3;
    records[1].pos = 1ull << 40;
    records[1].mapq = 7;
    records[1].reverse = true;
    records[1].cigar = Cigar::parse("5M");
    records[1].seq = "GGGGG";
    records[2].qname = "long";
    records[2].pos = 5;
    records[2].cigar = Cigar(std::vector<CigarUnit>{
        {(1u << 28) - 1, CigarOp::kDeletion}, {1, CigarOp::kMatch}});
    records[2].seq = "T";
    records[2].qual = "~";
    return records;
}

void
expectSameRecords(const std::vector<AlnRecord>& got,
                  const std::vector<AlnRecord>& want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].qname, want[i].qname) << i;
        EXPECT_EQ(got[i].ref_id, want[i].ref_id) << i;
        EXPECT_EQ(got[i].pos, want[i].pos) << i;
        EXPECT_EQ(got[i].mapq, want[i].mapq) << i;
        EXPECT_EQ(got[i].reverse, want[i].reverse) << i;
        EXPECT_EQ(got[i].cigar, want[i].cigar) << i;
        EXPECT_EQ(got[i].seq, want[i].seq) << i;
        EXPECT_EQ(got[i].qual, want[i].qual) << i;
    }
}

TEST(StoreArtifacts, AlnRecordsRoundTrip)
{
    ScratchDir scratch;
    const auto records = sampleAlnRecords();
    std::vector<bool> seen_op(6, false);
    for (const auto& rec : records) {
        for (const auto& unit : rec.cigar.units()) {
            seen_op[static_cast<size_t>(unit.op)] = true;
        }
    }
    ASSERT_EQ(std::count(seen_op.begin(), seen_op.end(), true), 6);

    const std::string path = scratch.file("aln.gbs");
    {
        StoreWriter writer(path);
        store::addAlnRecords(writer, "aln", records);
        writer.finish();
    }
    for (ReadMode mode : {ReadMode::kMmap, ReadMode::kStream}) {
        auto reader = StoreReader::open(path, mode);
        expectSameRecords(store::readAlnRecords(reader, "aln"),
                          records);
    }
}

TEST(StoreArtifacts, RowLoadersRejectMalformedSections)
{
    ScratchDir scratch;
    const std::string path = scratch.file("bad.gbs");
    {
        StoreWriter writer(path);
        // Blob of 13 bytes: not a whole number of 12-byte anchors.
        const std::vector<u8> ragged(13, 1);
        const std::vector<u64> ragged_off{0, 1};
        writer.addVec("ragged.blob", std::span<const u8>(ragged));
        writer.addVec("ragged.offsets",
                      std::span<const u64>(ragged_off));
        // Offsets that run backwards.
        const std::vector<Anchor> two{{1, 1, 15}, {2, 2, 15}};
        const std::vector<u64> backwards{0, 2, 1, 2};
        writer.addVec("back.blob", std::span<const Anchor>(two));
        writer.addVec("back.offsets", std::span<const u64>(backwards));
        // A CIGAR op code past kDiff.
        auto bad_op = sampleAlnRecords();
        bad_op[1].cigar =
            Cigar(std::vector<CigarUnit>{{5, static_cast<CigarOp>(6)}});
        store::addAlnRecords(writer, "badop", bad_op);
        // A record whose CIGAR disagrees with its sequence.
        auto bad_len = sampleAlnRecords();
        bad_len[0].seq += "A";
        bad_len[0].qual.clear();
        store::addAlnRecords(writer, "badlen", bad_len);
        writer.finish();
    }
    auto reader = StoreReader::open(path);
    // Each section's digest is intact, so every rejection below comes
    // from the loader's own structural check.
    const auto rejects = [&](const std::function<void()>& load,
                             const std::string& why) {
        try {
            load();
            ADD_FAILURE() << "accepted; expected: " << why;
        } catch (const InputError& e) {
            EXPECT_NE(std::string(e.what()).find(why),
                      std::string::npos)
                << e.what();
        }
    };
    rejects([&] { store::readPodRows<Anchor>(reader, "ragged"); },
            "not a multiple of element size");
    rejects([&] { store::readPodRows<Anchor>(reader, "back"); },
            "not monotonic");
    rejects([&] { store::readAlnRecords(reader, "badop"); },
            "unknown CIGAR op");
    rejects([&] { store::readAlnRecords(reader, "badlen"); },
            "CIGAR query length");
}

// ---------------------------------------------------------------------
// Cache

TEST(StoreCache, BuildOrLoadAndCorruptFallback)
{
    ScratchDir scratch;
    store::ArtifactCache cache(scratch.dir());
    const u64 key = KeyMixer().mix("test/v1").mix(123).value();

    EXPECT_EQ(cache.tryOpen("fam", key), nullptr);
    EXPECT_EQ(cache.misses(), 1u);

    const std::vector<std::vector<u8>> rows{{1, 2, 3}, {4, 5}};
    ASSERT_TRUE(cache.write("fam", key,
                            [&](StoreWriter& writer) {
                                store::addPodRows<u8>(
                                    writer, "rows",
                                    std::span<const std::vector<u8>>(
                                        rows));
                            }));

    auto reader = cache.tryOpen("fam", key);
    ASSERT_NE(reader, nullptr);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(store::readPodRows<u8>(*reader, "rows"), rows);

    // Different key: clean miss.
    EXPECT_EQ(cache.tryOpen("fam", key + 1), nullptr);

    // A file that fails open-time validation is discarded, not fatal.
    const std::string path = cache.pathFor("fam", key);
    std::filesystem::resize_file(path, 32);
    EXPECT_EQ(cache.tryOpen("fam", key), nullptr);
    EXPECT_FALSE(std::filesystem::exists(path));
}

/**
 * Payload corruption is only detectable by the lazy digest checks
 * inside the artifact loaders (open-time validation covers just the
 * header/TOC), so load() must turn that late failure into a
 * discard-and-miss too — a corrupt cache file may never fail a run.
 */
TEST(StoreCache, LoadDiscardsPayloadCorruptFile)
{
    ScratchDir scratch;
    store::ArtifactCache cache(scratch.dir());
    const u64 key = 99;
    const std::vector<std::vector<u8>> rows{{1, 2, 3, 4, 5, 6, 7, 8}};
    ASSERT_TRUE(cache.write("fam", key, [&](StoreWriter& writer) {
        store::addPodRows<u8>(writer, "rows",
                           std::span<const std::vector<u8>>(rows));
    }));
    // Damage the first payload byte: the TOC stays valid, so tryOpen
    // alone would hand this file out.
    const std::string path = cache.pathFor("fam", key);
    flipByte(path, store::kAlign);

    bool used = false;
    const bool loaded =
        cache.load("fam", key, [&](const auto& reader) {
            store::readPodRows<u8>(*reader, "rows");
            used = true;
        });
    EXPECT_FALSE(loaded);
    EXPECT_FALSE(used);
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 1u);

    // The caller rebuilds and re-writes; the next load succeeds.
    ASSERT_TRUE(cache.write("fam", key, [&](StoreWriter& writer) {
        store::addPodRows<u8>(writer, "rows",
                           std::span<const std::vector<u8>>(rows));
    }));
    std::vector<std::vector<u8>> reloaded;
    EXPECT_TRUE(cache.load("fam", key, [&](const auto& reader) {
        reloaded = store::readPodRows<u8>(*reader, "rows");
    }));
    EXPECT_EQ(reloaded, rows);
}

TEST(StoreCache, DisabledCacheIsInert)
{
    store::ArtifactCache cache;
    EXPECT_FALSE(cache.enabled());
    EXPECT_EQ(cache.tryOpen("fam", 1), nullptr);
    EXPECT_FALSE(cache.write("fam", 1, [](StoreWriter&) {}));
}

/**
 * Warm-vs-cold identity for the cache-aware kernels: a prepare() that
 * loads from the store must produce bitwise-identical kernel inputs,
 * which taskWork() (a pure function of those inputs) witnesses.
 */
TEST(StoreCache, WarmPrepareMatchesColdPrepare)
{
    ScratchDir scratch;
    for (const char* name :
         {"fmi", "kmer-cnt", "abea", "chain", "pileup"}) {
        store::setCacheDir(scratch.dir());
        const u64 hits_before = store::globalCache().hits();

        auto cold = createKernel(name);
        cold->prepare(DatasetSize::kTiny);
        const auto cold_work = cold->taskWork();

        auto warm = createKernel(name);
        warm->prepare(DatasetSize::kTiny);
        const auto warm_work = warm->taskWork();

        EXPECT_GT(store::globalCache().hits(), hits_before) << name;
        EXPECT_EQ(warm_work, cold_work) << name;

        // And a cache-disabled prepare agrees too.
        store::setCacheDir("");
        auto plain = createKernel(name);
        plain->prepare(DatasetSize::kTiny);
        EXPECT_EQ(plain->taskWork(), cold_work) << name;
    }
    store::setCacheDir("");
}

/**
 * A chain artifact with a flipped payload byte fails its digest check
 * on load; prepare() must discard it, rebuild, and end up with the
 * same kernel inputs.
 */
TEST(StoreCache, CorruptChainArtifactIsRebuilt)
{
    ScratchDir scratch;
    store::setCacheDir(scratch.dir());
    auto& cache = store::globalCache();

    auto cold = createKernel("chain");
    cold->prepare(DatasetSize::kTiny);
    const auto cold_work = cold->taskWork();

    std::vector<std::string> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(scratch.dir())) {
        files.push_back(entry.path().string());
    }
    ASSERT_EQ(files.size(), 1u);
    ASSERT_EQ(std::filesystem::path(files[0]).filename().string().rfind(
                  "chain-", 0),
              0u);
    flipByte(files[0], store::kAlign + 5);

    const u64 builds_before = cache.builds();
    auto rebuilt = createKernel("chain");
    rebuilt->prepare(DatasetSize::kTiny);
    EXPECT_EQ(cache.builds(), builds_before + 1);
    EXPECT_EQ(rebuilt->taskWork(), cold_work);

    // The rebuild re-published a valid artifact.
    const u64 hits_before = cache.hits();
    auto warm = createKernel("chain");
    warm->prepare(DatasetSize::kTiny);
    EXPECT_EQ(cache.hits(), hits_before + 1);
    EXPECT_EQ(warm->taskWork(), cold_work);
    store::setCacheDir("");
}

} // namespace
} // namespace gb
