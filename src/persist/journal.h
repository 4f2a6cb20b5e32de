// Append-only, CRC32-framed write-ahead journal (DESIGN.md §11).
//
// The journal is a flat byte stream of self-delimiting frames:
//
//   frame := [u32 payload_len][u32 crc32(payload)][payload bytes]
//
// (all integers little-endian). Appends are strictly at the tail, so a
// crash mid-append can only produce a *torn tail* — a final frame whose
// length header, CRC, or payload is incomplete or corrupt. DecodeFrames
// therefore treats the first bad CRC or short frame as the end of the
// reliable log: everything before it is returned, everything after is
// dropped (one warning per structurally-recognizable dropped frame, one for
// an unframeable tail) and reported in `dropped_records` so recovery can
// surface the truncation instead of aborting.
//
// Durability is abstracted behind JournalStorage so the simulator's
// crash-injection tests can run against an in-memory "disk" that survives
// the simulated scheduler death, while real deployments use the file-backed
// variant (journal file + snapshot file, the latter replaced crash-atomically
// via write-to-temp + rename).

#ifndef TETRISCHED_PERSIST_JOURNAL_H_
#define TETRISCHED_PERSIST_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace tetrisched {

// Standard CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the same
// checksum gzip/PNG use. Crc32("123456789") == 0xCBF43926.
uint32_t Crc32(std::string_view data);

// Wraps `payload` in a length+CRC frame.
std::string EncodeFrame(std::string_view payload);

struct DecodedJournal {
  std::vector<std::string> payloads;  // frames before the first bad one
  size_t valid_bytes = 0;     // journal prefix covered by `payloads`
  int dropped_records = 0;    // frames (or tail fragments) truncated away
};

// Walks the frame stream, stopping at the first CRC mismatch or truncated
// frame. Frames past the first bad one are never trusted as data, but their
// headers are still walked (best effort) purely to count and warn about
// each dropped record; an unframeable byte tail counts as one more.
DecodedJournal DecodeFrames(std::string_view bytes, bool log_dropped = true);

// Durable byte store for one journal + one snapshot.
class JournalStorage {
 public:
  virtual ~JournalStorage() = default;

  virtual void AppendJournal(std::string_view bytes) = 0;
  virtual std::string ReadJournal() const = 0;
  virtual void TruncateJournal() = 0;

  // Atomically replaces the snapshot (readers never see a partial one).
  virtual void WriteSnapshot(std::string_view bytes) = 0;
  virtual std::string ReadSnapshot() const = 0;  // empty when none exists
};

// In-memory storage: "durable" across a simulated scheduler crash because
// the simulation harness, not the scheduler, owns it.
class MemoryJournalStorage : public JournalStorage {
 public:
  void AppendJournal(std::string_view bytes) override;
  std::string ReadJournal() const override;
  void TruncateJournal() override;
  void WriteSnapshot(std::string_view bytes) override;
  std::string ReadSnapshot() const override;

  // Test hooks: mutate the stored bytes to model media corruption.
  std::string& mutable_journal() { return journal_; }
  std::string& mutable_snapshot() { return snapshot_; }

 private:
  std::string journal_;
  std::string snapshot_;
};

// Non-owning forwarder: PersistenceManager owns its storage, but storage
// that must outlive the manager (a restarted daemon re-attaching to the
// same journal, or a second manager reading the same bytes) is lent
// through this instead.
class ForwardingStorage : public JournalStorage {
 public:
  explicit ForwardingStorage(JournalStorage* target) : target_(target) {}
  void AppendJournal(std::string_view bytes) override {
    target_->AppendJournal(bytes);
  }
  std::string ReadJournal() const override { return target_->ReadJournal(); }
  void TruncateJournal() override { target_->TruncateJournal(); }
  void WriteSnapshot(std::string_view bytes) override {
    target_->WriteSnapshot(bytes);
  }
  std::string ReadSnapshot() const override {
    return target_->ReadSnapshot();
  }

 private:
  JournalStorage* target_;
};

// File-backed storage rooted at a directory: `<dir>/journal.wal` +
// `<dir>/snapshot.bin`. Journal appends are flushed per record; the
// snapshot is replaced via WriteFileAtomic.
class FileJournalStorage : public JournalStorage {
 public:
  explicit FileJournalStorage(std::string dir);

  void AppendJournal(std::string_view bytes) override;
  std::string ReadJournal() const override;
  void TruncateJournal() override;
  void WriteSnapshot(std::string_view bytes) override;
  std::string ReadSnapshot() const override;

  std::string journal_path() const;
  std::string snapshot_path() const;

 private:
  std::string dir_;
};

}  // namespace tetrisched

#endif  // TETRISCHED_PERSIST_JOURNAL_H_
