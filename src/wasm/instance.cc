#include "wasm/instance.h"

#include "common/strings.h"
#include "wasm/compiler.h"

namespace rr::wasm {

Result<std::unique_ptr<Instance>> Instance::Instantiate(
    Module module, const ImportResolver& imports, InstanceConfig config) {
  RR_ASSIGN_OR_RETURN(auto compiled, CompileModule(module));

  auto instance = std::unique_ptr<Instance>(new Instance());
  instance->config_ = config;
  instance->fuel_ = config.fuel;
  instance->compiled_ = std::move(compiled);

  // Link imports. Deny-by-default: every import must resolve, with an
  // exactly matching signature.
  instance->imported_.reserve(module.imports.size());
  for (const Import& import : module.imports) {
    const HostFunction* host = imports.Lookup(import.module, import.name);
    if (host == nullptr) {
      return NotFoundError("unresolved import " + import.module +
                           "." + import.name);
    }
    if (!(host->type == module.types[import.type_index])) {
      return InvalidArgumentError(
          "import signature mismatch for " + import.module + "." + import.name +
          ": module wants " + module.types[import.type_index].ToString() +
          ", host provides " + host->type.ToString());
    }
    instance->imported_.push_back(*host);
  }

  if (module.memory.has_value()) {
    Limits limits = *module.memory;
    if (config.max_memory_pages.has_value()) {
      const uint32_t declared_max =
          limits.has_max ? limits.max_pages : kDefaultMaxPages;
      limits.has_max = true;
      limits.max_pages = std::min(config.max_memory_pages.value(), declared_max);
      if (limits.max_pages < limits.min_pages) {
        return InvalidArgumentError("memory limit below module minimum");
      }
    }
    RR_ASSIGN_OR_RETURN(instance->memory_, LinearMemory::Create(limits));
  }

  instance->globals_.reserve(module.globals.size());
  for (const GlobalDef& global : module.globals) {
    instance->globals_.push_back(global.init);
  }

  // Apply active data segments.
  for (const DataSegment& segment : module.data) {
    if (instance->memory_ == nullptr) {
      return InvalidArgumentError("data segment without memory");
    }
    RR_RETURN_IF_ERROR(instance->memory_->Write(segment.offset, segment.bytes));
  }

  instance->native_bodies_.resize(module.functions.size());
  instance->module_ = std::move(module);
  return instance;
}

Result<std::vector<Value>> Instance::Call(uint32_t func_index,
                                          std::span<const Value> args) {
  const FuncType* type = module_.function_type(func_index);
  if (type == nullptr) {
    return InvalidArgumentError("function index out of range");
  }
  if (args.size() != type->params.size()) {
    return InvalidArgumentError(StrFormat(
        "argument count mismatch: got %zu, want %zu", args.size(),
        type->params.size()));
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].type != type->params[i]) {
      return InvalidArgumentError(StrFormat("argument %zu type mismatch", i));
    }
  }

  std::vector<Value> results(type->results.size());
  for (size_t i = 0; i < results.size(); ++i) results[i].type = type->results[i];

  if (func_index < module_.num_imported_functions()) {
    ++host_calls_;
    RR_RETURN_IF_ERROR(imported_[func_index].fn(*this, args, results));
    return results;
  }

  const uint32_t defined = func_index - module_.num_imported_functions();
  if (native_bodies_[defined]) {
    RR_RETURN_IF_ERROR(native_bodies_[defined](*this, args, results));
    return results;
  }
  RR_RETURN_IF_ERROR(Invoke(defined, args, results));
  return results;
}

Result<std::vector<Value>> Instance::CallExport(std::string_view name,
                                                std::span<const Value> args) {
  const Export* e = module_.FindExport(name, ExportKind::kFunction);
  if (e == nullptr) {
    return NotFoundError("no exported function named " + std::string(name));
  }
  return Call(e->index, args);
}

Status Instance::RegisterNativeBody(std::string_view export_name, NativeBody body) {
  const Export* e = module_.FindExport(export_name, ExportKind::kFunction);
  if (e == nullptr) {
    return NotFoundError("no exported function named " + std::string(export_name));
  }
  if (e->index < module_.num_imported_functions()) {
    return InvalidArgumentError("cannot override an imported function");
  }
  native_bodies_[e->index - module_.num_imported_functions()] = std::move(body);
  return Status::Ok();
}

}  // namespace rr::wasm
