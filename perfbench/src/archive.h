// Seeded, paper-shaped video archives for the end-to-end benchmark.
//
// An archive is a set of videos of 50 scenes each. Every video is one
// GenerateArchive timeline (src/video/synthetic.h): its shots become the
// scenes (`interval scN { duration, entities }`), and the entities present
// in a shot become the scene's `entities` set. Each video casts a dozen
// actors from a global population (`object aN`), so actors recur across
// videos. On top of that the generator draws the relation facts
//
//   speaks(O, G)      an actor present in scene G speaks in it,
//   holds(O1, O2, G)  one present actor holds another in scene G,
//   next(G1, G2)      G2 directly follows G1 in the same video,
//
// and the archive text carries StandardRuleLibrary() plus `later`, the
// transitive closure of `next`.
//
// The tables here are the benchmark's ground truth: the oracle
// (workload.h) answers every query class from them without the engine.

#ifndef PERFBENCH_SRC_ARCHIVE_H_
#define PERFBENCH_SRC_ARCHIVE_H_

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace perfbench {

inline constexpr uint32_t kScenesPerVideo = 50;

struct ArchiveSize {
  uint32_t videos = 0;
  uint32_t actors = 0;
};

/// "toy" (seconds-long self test), "small" (~3e3 facts), "medium" (~3e4)
/// and "large" (~1e5). Returns false for an unknown name.
bool SizeByName(const std::string& name, ArchiveSize* out);

struct Scene {
  int64_t begin = 0;  // closed duration [begin, end], in deciseconds
  int64_t end = 0;
  uint32_t video = 0;
  std::vector<uint32_t> actors;  // sorted, distinct
};

class Archive {
 public:
  static Archive Generate(const ArchiveSize& size, uint64_t seed);

  static std::string ActorName(uint32_t a);  // "a<a>"
  static std::string SceneName(uint32_t s);  // "sc<s>"

  /// The loadable `.vql` text of the base archive (scenes added later with
  /// AddScene are not part of it: they arrive as wire statements).
  std::string ToVql() const;

  /// Appends a scene that is not in the base archive (ingest writes) and
  /// one `speaks` fact per actor. Returns its scene index.
  uint32_t AddScene(int64_t begin, int64_t end, std::vector<uint32_t> actors);
  /// The statement text that declares scene `s` and its `speaks` facts.
  std::string SceneStatement(uint32_t s) const;

  uint32_t actors() const { return actors_; }
  uint32_t base_scenes() const { return base_scenes_; }
  const std::vector<Scene>& scenes() const { return scenes_; }
  bool is_last_of_video(uint32_t s) const {
    return s + 1 >= base_scenes_ || scenes_[s + 1].video != scenes_[s].video;
  }

  // Relation facts of the base archive.
  size_t speaks_facts() const { return base_speaks_; }
  size_t holds_facts() const { return holds_.size(); }
  size_t next_facts() const;
  size_t relation_facts() const {
    return speaks_facts() + holds_facts() + next_facts();
  }

  // Ground-truth indexes (base scenes and added ones alike).
  const std::vector<uint32_t>& scenes_of_actor(uint32_t a) const {
    return scenes_of_actor_[a];
  }
  const std::vector<uint32_t>& speaks_of_actor(uint32_t a) const {
    return speaks_of_actor_[a];
  }
  const std::vector<uint32_t>& speakers_of_scene(uint32_t s) const {
    return speakers_of_scene_[s];
  }
  /// holds(O, a, G) rows for object position 2 bound to `a`: (O, G).
  const std::vector<std::pair<uint32_t, uint32_t>>& holders_of(
      uint32_t a) const {
    return holders_of_[a];
  }

 private:
  void IndexScene(uint32_t s);
  void AddSpeaks(uint32_t a, uint32_t s);

  uint32_t actors_ = 0;
  uint32_t base_scenes_ = 0;
  size_t base_speaks_ = 0;
  std::vector<Scene> scenes_;
  std::vector<std::tuple<uint32_t, uint32_t, uint32_t>> holds_;
  std::vector<std::vector<uint32_t>> scenes_of_actor_;
  std::vector<std::vector<uint32_t>> speaks_of_actor_;
  std::vector<std::vector<uint32_t>> speakers_of_scene_;
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> holders_of_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ARCHIVE_H_
