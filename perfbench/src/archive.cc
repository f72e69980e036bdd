#include "perfbench/src/archive.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/common/rng.h"
#include "src/storage/catalog.h"
#include "src/video/synthetic.h"

namespace perfbench {
namespace {

// Per video: a cast of kCast actors, each present in a shot with
// kPresence (~2.4 actors per scene); a present actor speaks with
// kSpeaks and holds each other present actor with kHolds. That gives
// about one speaks, one holds and one next fact per scene.
constexpr uint32_t kCast = 12;
constexpr double kPresence = 0.2;
constexpr double kSpeaks = 0.4;
constexpr double kHolds = 0.2;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  vqldb::Rng rng(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
  return rng.Next();
}

}  // namespace

bool SizeByName(const std::string& name, ArchiveSize* out) {
  if (name == "toy") {
    *out = {4, 20};
  } else if (name == "small") {
    *out = {20, 100};
  } else if (name == "medium") {
    *out = {200, 1000};
  } else if (name == "large") {
    *out = {660, 3300};
  } else {
    return false;
  }
  return true;
}

// snprintf rather than "a" + std::to_string(a), on which GCC 12 warns
// falsely (-Wrestrict).
std::string Archive::ActorName(uint32_t a) {
  char buf[16];
  return std::string(buf, std::snprintf(buf, sizeof(buf), "a%u", a));
}

std::string Archive::SceneName(uint32_t s) {
  char buf[16];
  return std::string(buf, std::snprintf(buf, sizeof(buf), "sc%u", s));
}

Archive Archive::Generate(const ArchiveSize& size, uint64_t seed) {
  Archive ar;
  ar.actors_ = size.actors;
  ar.scenes_of_actor_.resize(size.actors);
  ar.speaks_of_actor_.resize(size.actors);
  ar.holders_of_.resize(size.actors);

  std::vector<uint32_t> population(size.actors);
  for (uint32_t a = 0; a < size.actors; ++a) population[a] = a;

  for (uint32_t v = 0; v < size.videos; ++v) {
    vqldb::Rng rng(Mix(seed, 2 * v + 1));
    // The cast: the first kCast of a seeded shuffle of the population.
    std::vector<uint32_t> cast = population;
    for (uint32_t i = 0; i < kCast && i < cast.size(); ++i) {
      uint32_t j = i + static_cast<uint32_t>(rng.UniformU64(cast.size() - i));
      std::swap(cast[i], cast[j]);
    }
    cast.resize(std::min<size_t>(kCast, cast.size()));

    vqldb::SyntheticArchiveConfig config;
    config.seed = Mix(seed, 2 * v + 2);
    config.num_entities = cast.size();
    config.num_shots = kScenesPerVideo;
    config.presence_probability = kPresence;
    vqldb::VideoTimeline timeline = vqldb::GenerateArchive(config);

    for (const vqldb::Shot& shot : timeline.shots()) {
      Scene scene;
      scene.video = v;
      scene.begin = std::llround(shot.begin_time * 10);
      scene.end = std::llround(shot.end_time * 10);
      // A trimmed occurrence still spans its shot's midpoint, and no
      // other shot's occurrence does.
      for (const std::string& entity :
           timeline.EntitiesAt((shot.begin_time + shot.end_time) / 2)) {
        // Track names are "actor<i>", i indexing the cast.
        uint32_t i = static_cast<uint32_t>(std::stoul(entity.substr(5)));
        scene.actors.push_back(cast[i]);
      }
      std::sort(scene.actors.begin(), scene.actors.end());
      uint32_t s = static_cast<uint32_t>(ar.scenes_.size());
      ar.scenes_.push_back(std::move(scene));
      ar.speakers_of_scene_.emplace_back();
      ar.IndexScene(s);
      const std::vector<uint32_t>& present = ar.scenes_[s].actors;
      for (uint32_t a : present) {
        if (rng.Bernoulli(kSpeaks)) ar.AddSpeaks(a, s);
      }
      for (uint32_t o1 : present) {
        for (uint32_t o2 : present) {
          if (o1 != o2 && rng.Bernoulli(kHolds)) {
            ar.holds_.emplace_back(o1, o2, s);
            ar.holders_of_[o2].emplace_back(o1, s);
          }
        }
      }
    }
  }
  ar.base_scenes_ = static_cast<uint32_t>(ar.scenes_.size());
  ar.base_speaks_ = 0;
  for (const auto& v : ar.speakers_of_scene_) ar.base_speaks_ += v.size();
  return ar;
}

void Archive::IndexScene(uint32_t s) {
  for (uint32_t a : scenes_[s].actors) scenes_of_actor_[a].push_back(s);
}

void Archive::AddSpeaks(uint32_t a, uint32_t s) {
  speaks_of_actor_[a].push_back(s);
  speakers_of_scene_[s].push_back(a);
}

uint32_t Archive::AddScene(int64_t begin, int64_t end,
                           std::vector<uint32_t> actors) {
  std::sort(actors.begin(), actors.end());
  actors.erase(std::unique(actors.begin(), actors.end()), actors.end());
  uint32_t s = static_cast<uint32_t>(scenes_.size());
  Scene scene;
  scene.begin = begin;
  scene.end = end;
  scene.video = UINT32_MAX;
  scene.actors = std::move(actors);
  scenes_.push_back(std::move(scene));
  speakers_of_scene_.emplace_back();
  IndexScene(s);
  for (uint32_t a : scenes_[s].actors) AddSpeaks(a, s);
  return s;
}

size_t Archive::next_facts() const {
  size_t n = 0;
  for (uint32_t s = 0; s < base_scenes_; ++s) {
    if (!is_last_of_video(s)) ++n;
  }
  return n;
}

namespace {

void WriteScene(const Archive& ar, uint32_t s, std::ostream& os) {
  const Scene& sc = ar.scenes()[s];
  os << "interval " << Archive::SceneName(s) << " { duration: (t >= "
     << sc.begin << " and t <= " << sc.end << "), entities: {";
  for (size_t i = 0; i < sc.actors.size(); ++i) {
    os << (i ? ", " : "") << Archive::ActorName(sc.actors[i]);
  }
  os << "} }.\n";
}

}  // namespace

std::string Archive::SceneStatement(uint32_t s) const {
  std::ostringstream os;
  WriteScene(*this, s, os);
  for (uint32_t a : speakers_of_scene_[s]) {
    os << "speaks(" << ActorName(a) << ", " << SceneName(s) << ").\n";
  }
  return os.str();
}

std::string Archive::ToVql() const {
  std::ostringstream os;
  os << "// Generated benchmark archive: " << actors_ << " actors, "
     << base_scenes_ << " scenes, " << relation_facts()
     << " relation facts.\n";
  for (uint32_t a = 0; a < actors_; ++a) {
    os << "object " << ActorName(a) << " { }.\n";
  }
  for (uint32_t s = 0; s < base_scenes_; ++s) WriteScene(*this, s, os);
  for (uint32_t s = 0; s < base_scenes_; ++s) {
    for (uint32_t a : speakers_of_scene_[s]) {
      os << "speaks(" << ActorName(a) << ", " << SceneName(s) << ").\n";
    }
  }
  for (const auto& [o1, o2, s] : holds_) {
    os << "holds(" << ActorName(o1) << ", " << ActorName(o2) << ", "
       << SceneName(s) << ").\n";
  }
  for (uint32_t s = 0; s < base_scenes_; ++s) {
    if (!is_last_of_video(s)) {
      os << "next(" << SceneName(s) << ", " << SceneName(s + 1) << ").\n";
    }
  }
  os << vqldb::StandardRuleLibrary();
  os << "later(G1, G2) <- next(G1, G2).\n"
        "later(G1, G3) <- next(G1, G2), later(G2, G3).\n";
  return os.str();
}

}  // namespace perfbench
