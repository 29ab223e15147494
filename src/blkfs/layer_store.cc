#include "src/blkfs/layer_store.h"

#include <string>
#include <utility>

#include "src/fault/fault_domain.h"
#include "src/host/machine.h"
#include "src/sim/fnv.h"

namespace cki {

int LayerStore::RegisterImage(std::vector<uint64_t> block_tags) {
  uint64_t hash = FnvMixWords(kFnvOffsetBasis, block_tags.data(), block_tags.size());
  for (size_t i = 0; i < images_.size(); ++i) {
    if (images_[i].content_hash == hash && images_[i].block_tags == block_tags) {
      return static_cast<int>(i);
    }
  }
  BlkImage image;
  image.frames.assign(block_tags.size(), kNoPage);
  image.block_tags = std::move(block_tags);
  image.content_hash = hash;
  images_.push_back(std::move(image));
  return static_cast<int>(images_.size() - 1);
}

int LayerStore::OpenView(int image_id, OwnerId owner) {
  if (image_id < 0 || static_cast<size_t>(image_id) >= images_.size()) {
    throw FatalHostError("LayerStore::OpenView: no image " + std::to_string(image_id));
  }
  int id = next_view_++;
  views_[id] = View{image_id, owner, {}};
  return id;
}

int LayerStore::CloneView(int view_id, OwnerId owner) {
  const View& parent = views_.at(view_id);
  int id = next_view_++;
  views_[id] = View{parent.image_id, owner, parent.delta};
  return id;
}

void LayerStore::CloseView(int view_id) { views_.erase(view_id); }

BlkResolution LayerStore::Resolve(int view_id, uint64_t block) const {
  const View& view = views_.at(view_id);
  BlkResolution res;
  auto it = view.delta.find(block);
  if (it != view.delta.end()) {
    res.tag = it->second;
    res.from_delta = true;
    res.chain_steps = 1;
    return res;
  }
  res.chain_steps = 2;
  const BlkImage& image = images_[static_cast<size_t>(view.image_id)];
  if (block < image.block_tags.size()) {
    res.base_present = true;
    res.tag = image.block_tags[block];
    res.host_pa = image.frames[block];
  }
  return res;
}

uint64_t LayerStore::MaterializeBase(int view_id, uint64_t block, bool* fresh) {
  const View& view = views_.at(view_id);
  BlkImage& image = images_[static_cast<size_t>(view.image_id)];
  if (block >= image.frames.size()) {
    throw FatalHostError("LayerStore::MaterializeBase: block " + std::to_string(block) +
                         " past the base extent of " + std::to_string(image.frames.size()));
  }
  if (image.frames[block] == kNoPage) {
    // Host-owned: survives any container kill; reclaimed only with the
    // machine. This is the single shared copy of the base block.
    image.frames[block] = machine_.frames().AllocFrame(kHostOwner);
    image.materialized++;
    if (fresh != nullptr) {
      *fresh = true;
    }
  } else if (fresh != nullptr) {
    *fresh = false;
  }
  return image.frames[block];
}

void LayerStore::WriteDelta(int view_id, uint64_t block, uint64_t tag) {
  views_.at(view_id).delta[block] = tag;
}

const std::map<uint64_t, uint64_t>& LayerStore::delta(int view_id) const {
  return views_.at(view_id).delta;
}

int LayerStore::image_of(int view_id) const { return views_.at(view_id).image_id; }

}  // namespace cki
